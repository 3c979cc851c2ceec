package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"susc/internal/budget"
	"susc/internal/engine"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/lint"
	"susc/internal/parser"
	"susc/internal/plans"
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

// runRequest owns one admitted request: budget, panic guard, stream,
// done line, webhook. Every path through it ends the response with a
// control line, so clients can always distinguish a complete (possibly
// failed) verification from a torn connection.
func (s *Server) runRequest(w http.ResponseWriter, r *http.Request, mode string, id int64, src string) {
	bud, cancel, err := s.reqBudget(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	st := newStream(w)
	unit := fmt.Sprintf("serve/%s#%d", mode, id)
	runErr := budget.Guard(unit, func() error {
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.ServeHandler, fmt.Sprintf("%s#%d", mode, id))
		}
		return s.runMode(mode, r, src, bud, st)
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
	if url := r.URL.Query().Get("webhook"); url != "" && s.hooks != nil {
		body, _ := json.Marshal(webhookPayload{
			Mode: mode, ID: id, File: fileName(r), Exit: exit,
			Records: st.records, Error: done.Error,
		})
		s.hooks.enqueue(url, body)
	}
}

// fileName is the display name diagnostics anchor to, client-chosen.
func fileName(r *http.Request) string {
	if f := r.URL.Query().Get("file"); f != "" {
		return f
	}
	return "spec"
}

// runMode dispatches one mode, writing record lines and returning the
// error that becomes the exit code — the same epilogue helpers the CLI
// uses, so exit codes match run for run.
func (s *Server) runMode(mode string, r *http.Request, src string, bud *budget.Budget, st *stream) error {
	q := r.URL.Query()
	switch mode {
	case "lint":
		minSev, err := lint.ParseSeverity(severityParam(r))
		if err != nil {
			return err
		}
		diags := s.sess.Lint(src, lint.Options{MinSeverity: minSev, Budget: bud})
		for _, d := range diags {
			if err := st.record(engine.LintEntry{File: fileName(r), Diagnostic: d}); err != nil {
				return err
			}
		}
		return engine.LintErr(diags, bud)

	case "audit":
		minSev, err := lint.ParseSeverity(severityParam(r))
		if err != nil {
			return err
		}
		res := s.sess.Audit(src, lint.Options{
			MinSeverity:       minSev,
			Budget:            bud,
			AuditDeclaredOnly: boolParam(q.Get("plan"), false),
		})
		for _, d := range res.Diagnostics {
			if err := st.record(engine.LintEntry{File: fileName(r), Diagnostic: d}); err != nil {
				return err
			}
		}
		for _, cc := range res.Coverage {
			if err := st.record(engine.CoverageEntry{File: fileName(r), Coverage: cc}); err != nil {
				return err
			}
		}
		return engine.AuditErr(res, bud)

	case "check":
		f, err := parser.ParseFile(src)
		if err != nil {
			return err
		}
		c, err := engine.SelectClient(f, q.Get("client"))
		if err != nil {
			return err
		}
		rep, err := s.sess.CheckPlan(f, c, bud)
		if err != nil {
			return err
		}
		if err := st.record(rep); err != nil {
			return err
		}
		return engine.CheckErr(rep, bud)

	case "checkall":
		f, err := parser.ParseFile(src)
		if err != nil {
			return err
		}
		caps, err := capsParam(q.Get("cap"))
		if err != nil {
			return err
		}
		res, runErr := s.sess.CheckAll(f, src, caps, bud)
		for _, d := range res.Lint {
			st.control(diagLine{Susc: "lint", Diag: engine.LintEntry{File: fileName(r), Diagnostic: d}})
		}
		if res.Audit != nil {
			for _, d := range res.Audit.Diagnostics {
				st.control(diagLine{Susc: "audit", Diag: engine.LintEntry{File: fileName(r), Diagnostic: d}})
			}
		}
		if runErr != nil {
			return runErr
		}
		if err := st.record(res.Report); err != nil {
			return err
		}
		return res.Err(bud)

	case "plans":
		f, err := parser.ParseFile(src)
		if err != nil {
			return err
		}
		c, err := engine.SelectClient(f, q.Get("client"))
		if err != nil {
			return err
		}
		opts := plans.Options{
			PruneNonCompliant: boolParam(q.Get("prune"), true),
			Budget:            bud,
		}
		err = s.sess.AssessStream(f, c, opts, func(a plans.Assessment) error {
			return st.record(engine.ToPlanEntry(a))
		})
		if err != nil {
			return err
		}
		if e := bud.Exhausted(); e != nil {
			return e
		}
		return nil
	}
	return fmt.Errorf("unknown mode %q", mode)
}

func severityParam(r *http.Request) string {
	if v := r.URL.Query().Get("severity"); v != "" {
		return v
	}
	return "info"
}

func boolParam(v string, dflt bool) bool {
	switch v {
	case "":
		return dflt
	case "0", "false", "no":
		return false
	}
	return true
}

func capsParam(spec string) (map[hexpr.Location]int, error) {
	if spec == "" {
		return nil, nil
	}
	return engine.ParseCaps(spec)
}
