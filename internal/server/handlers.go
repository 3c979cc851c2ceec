package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"susc/internal/budget"
	"susc/internal/engine"
	"susc/internal/faultinject"
)

// stream writes one NDJSON response: record lines byte-identical to the
// CLI's -json output for the mode, control lines (first key "susc") for
// everything else, flushed per line so long verifications stream.
type stream struct {
	enc     *json.Encoder
	flusher http.Flusher
	records int
}

func newStream(w http.ResponseWriter) *stream {
	st := &stream{enc: json.NewEncoder(w)}
	st.flusher, _ = w.(http.Flusher)
	return st
}

func (st *stream) flush() {
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

// record emits one result line — the shapes engine/entry.go pins.
func (st *stream) record(v any) error {
	if err := st.enc.Encode(v); err != nil {
		return err
	}
	st.records++
	st.flush()
	return nil
}

// control emits one out-of-band line; encode errors are unreportable
// (the response is the error channel) and deliberately dropped.
func (st *stream) control(v any) {
	st.enc.Encode(v)
	st.flush()
}

// doneLine ends every response: the exit code the CLI would have
// returned, and its error message when non-zero.
type doneLine struct {
	Susc    string `json:"susc"` // "done"
	Exit    int    `json:"exit"`
	Records int    `json:"records"`
	Error   string `json:"error,omitempty"`
}

// errorLine reports an isolated panic: the typed repro unit a client
// quotes when filing the failure.
type errorLine struct {
	Susc    string `json:"susc"` // "error"
	Unit    string `json:"unit"`
	Message string `json:"message"`
}

// diagLine carries a checkall finding that the CLI would print to
// stderr — in-band but out of the record stream.
type diagLine struct {
	Susc string           `json:"susc"` // "lint" or "audit"
	Diag engine.LintEntry `json:"diag"`
}

// webhookPayload is the signed result callback body.
type webhookPayload struct {
	Mode    string `json:"mode"`
	ID      int64  `json:"id"`
	File    string `json:"file"`
	Exit    int    `json:"exit"`
	Records int    `json:"records"`
	Error   string `json:"error,omitempty"`
}

// runRequest owns one admitted request: query, budget, panic guard,
// stream, done line, webhook. Every path past the query ends the
// response with a control line, so clients can always distinguish a
// complete (possibly failed) verification from a torn connection.
func (s *Server) runRequest(w http.ResponseWriter, r *http.Request, m *engine.Mode, id int64, src string) {
	fs, q := newQuery(m)
	vals, err := url.ParseQuery(r.URL.RawQuery)
	if err == nil {
		err = fs.Parse(queryArgs(vals))
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bud, cancel := s.reqBudget(r, q.Params)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	st := newStream(w)
	file := cmp.Or(q.file, "spec")
	req := &engine.Request{File: file, Src: src, Budget: bud, Params: *q.Params}
	out := &engine.Output{Record: st.record, Note: func(kind string, e engine.LintEntry) {
		st.control(diagLine{Susc: kind, Diag: e})
	}}
	unit := fmt.Sprintf("serve/%s#%d", m.Name, id)
	runErr := budget.Guard(unit, func() error {
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.ServeHandler, fmt.Sprintf("%s#%d", m.Name, id))
		}
		return m.Run(s.sess, req, out)
	})
	var ie *budget.InternalError
	if errors.As(runErr, &ie) {
		s.panics.Add(1)
		st.control(errorLine{Susc: "error", Unit: ie.Unit, Message: fmt.Sprint(ie.Value)})
	}
	exit := engine.ExitCode(runErr)
	done := doneLine{Susc: "done", Exit: exit, Records: st.records}
	if runErr != nil {
		done.Error = runErr.Error()
	}
	st.control(done)
	if q.webhook != "" && s.hooks != nil {
		body, _ := json.Marshal(webhookPayload{
			Mode: m.Name, ID: id, File: file, Exit: exit,
			Records: st.records, Error: done.Error,
		})
		s.hooks.enqueue(q.webhook, body)
	}
}

// query is one request's parsed query string.
type query struct {
	*engine.Params
	file, webhook string
}

// newQuery builds the flag set /v1/<mode> parses its query with: the
// mode's served parameters, defined as `susc <mode>` defines them, plus
// the server's own file and webhook. A flag.FlagSet is not safe for
// concurrent use, so every request builds its own.
func newQuery(m *engine.Mode) (*flag.FlagSet, *query) {
	fs := flag.NewFlagSet(m.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	q := &query{Params: m.Flags(fs, true)}
	// A served run always streams JSON records.
	q.JSON, q.Stream = true, true
	fs.StringVar(&q.file, "file", "", "the `NAME` findings anchor to (default spec)")
	fs.StringVar(&q.webhook, "webhook", "", "POST the signed completion summary to `URL`")
	return fs, q
}

// QueryFlags returns the flag set /v1/<mode>'s query parses with, for
// the docs drift test that pins the README's endpoint table to it.
func QueryFlags(m *engine.Mode) *flag.FlagSet {
	fs, _ := newQuery(m)
	return fs
}

// queryArgs spells a query as the flags `susc <mode>` takes, keys in
// order, so a malformed or unknown parameter fails as that flag would.
func queryArgs(q url.Values) []string {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var args []string
	for _, k := range keys {
		for _, v := range q[k] {
			args = append(args, "-"+k+"="+v)
		}
	}
	return args
}
