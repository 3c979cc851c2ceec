package verify_test

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"susc/internal/engine"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// The fuzzed strings travel as one input: fieldSep separates the
// report's string fields, its trace and the plan; sep separates the
// trace's labels and the plan's bindings. One string argument keeps the
// fuzzer's per-argument minimisation short.
const (
	fieldSep = "\x1e"
	sep      = "\x1f"
)

// FuzzReportJSON: the reflection-free encoders write exactly what
// encoding/json writes. A report built from fuzzed fields — any verdict,
// states and frontier, strings holding quotes, backslashes, HTML
// metacharacters, control bytes, U+2028/U+2029 and invalid UTF-8 —
// encodes as json.Marshal of its reportJSON wire struct, and a PlanEntry
// over a fuzzed plan as the reflective {"plan": map, "report": …}
// encoding, also when encoding/json re-reads it as a Marshaler. The
// corpus is seeded with the reports of hotel.susc's plans.
func FuzzReportJSON(f *testing.F) {
	src, err := os.ReadFile("../../testdata/hotel.susc")
	if err != nil {
		f.Fatal(err)
	}
	file, err := parser.ParseFile(string(src))
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range file.Clients {
		as, err := plans.AssessAll(file.Repo, file.Table, c.Loc, c.Expr, plans.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, a := range as {
			enc, err := verify.EncodeReport(a.Report)
			if err != nil {
				f.Fatal(err)
			}
			r, err := verify.DecodeReport(enc) // the trace as labels
			if err != nil {
				f.Fatal(err)
			}
			var binds []string
			for req, loc := range a.Plan {
				binds = append(binds, string(req)+">"+string(loc))
			}
			f.Add(int(r.Verdict), r.States, r.Frontier, false, strings.Join([]string{
				string(r.Policy), string(r.Request), r.Witness, strings.Join(r.TraceLabels, sep),
				r.StuckTree, r.Reason, strings.Join(binds, sep)}, fieldSep))
		}
	}
	f.Add(int(verify.Unknown), -3, 7, false, strings.Join([]string{
		"<p>&", `r"1`, `a\b`, " " + sep + "\xff\x00", "\t ", "é ", "r<1>s&1" + sep + "\x7f>\xc3"}, fieldSep))
	f.Add(99, 0, -1, true, strings.Repeat(fieldSep, 3)+sep)

	f.Fuzz(func(t *testing.T, verdict, states, frontier int, noReport bool, fields string) {
		parts := strings.SplitN(fields, fieldSep, 7)
		for len(parts) < 7 {
			parts = append(parts, "")
		}
		policy, request, witness, trace, stuck, reason, planText :=
			parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], parts[6]

		r := &verify.Report{
			Verdict:   verify.Verdict(verdict),
			Policy:    hexpr.PolicyID(policy),
			Request:   hexpr.RequestID(request),
			Witness:   witness,
			StuckTree: stuck,
			States:    states,
			Reason:    reason,
			Frontier:  frontier,
		}
		if trace != "" {
			r.TraceLabels = strings.Split(trace, sep)
		}
		wire := &verify.ReportJSON{
			Verdict: r.Verdict.String(), Policy: policy, Request: request, Witness: witness,
			Trace: r.TraceLabels, StuckTree: stuck, States: states, Reason: reason, Frontier: frontier,
		}
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := verify.EncodeReport(r); !bytes.Equal(got, want) || !bytes.Equal(enc, want) {
			t.Fatalf("report encodes as\n%s\n%s\nwant\n%s", got, enc, want)
		}

		plan := network.Plan{}
		m := map[string]string{}
		if planText != "" {
			for _, b := range strings.Split(planText, sep) {
				req, loc, _ := strings.Cut(b, ">")
				plan[hexpr.RequestID(req)] = hexpr.Location(loc)
				m[req] = loc
			}
		}
		e := engine.PlanEntry{Plan: plan, Report: r}
		reflective := struct {
			Plan   map[string]string  `json:"plan"`
			Report *verify.ReportJSON `json:"report"`
		}{m, wire}
		if noReport {
			e.Report, reflective.Report = nil, nil
		}
		want, err = json.Marshal(reflective)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := e.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err = json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, want) || !bytes.Equal(got, want) {
			t.Fatalf("plan entry encodes as\n%s\n%s\nwant\n%s", direct, got, want)
		}
	})
}
