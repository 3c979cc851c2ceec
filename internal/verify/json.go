package verify

import (
	"encoding/json"
	"strconv"
)

// reportJSON is the wire form of a Report. AppendJSON writes its
// encoding/json encoding without reflection.
type reportJSON struct {
	Verdict   string   `json:"verdict"`
	Policy    string   `json:"policy,omitempty"`
	Request   string   `json:"request,omitempty"`
	Witness   string   `json:"witness,omitempty"`
	Trace     []string `json:"trace,omitempty"`
	StuckTree string   `json:"stuckTree,omitempty"`
	States    int      `json:"states"`
	Reason    string   `json:"reason,omitempty"`
	Frontier  int      `json:"frontier,omitempty"`
}

// MarshalJSON renders the report for machine consumption (CI pipelines,
// the CLI's -json flag): the verdict as its string form, the trace as
// label strings.
func (r *Report) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// AppendJSON appends the report's wire form to b: the bytes
// json.Marshal writes for its reportJSON.
func (r *Report) AppendJSON(b []byte) []byte {
	b = append(b, `{"verdict":`...)
	b = AppendJSONString(b, r.Verdict.String())
	field := func(name, v string) {
		if v != "" {
			b = append(b, `,"`...)
			b = append(b, name...)
			b = append(b, `":`...)
			b = AppendJSONString(b, v)
		}
	}
	field("policy", string(r.Policy))
	field("request", string(r.Request))
	field("witness", r.Witness)
	if trace := r.traceLabels(); len(trace) > 0 {
		b = append(b, `,"trace":[`...)
		for i, l := range trace {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(b, l)
		}
		b = append(b, ']')
	}
	field("stuckTree", r.StuckTree)
	b = append(b, `,"states":`...)
	b = strconv.AppendInt(b, int64(r.States), 10)
	field("reason", r.Reason)
	if r.Frontier != 0 {
		b = append(b, `,"frontier":`...)
		b = strconv.AppendInt(b, int64(r.Frontier), 10)
	}
	return append(b, '}')
}

// AppendJSONString appends s as a JSON string, exactly as json.Marshal
// writes it. Plain printable ASCII without '"', '\\', '<', '>' or '&' is
// copied between quotes; any other string goes through encoding/json, so
// the escaping (HTML-safe, U+2028/U+2029, invalid UTF-8) cannot drift from
// it.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
