package engine

import (
	"errors"

	"susc/internal/budget"
	"susc/internal/lint"
	"susc/internal/plans"
	"susc/internal/verify"
)

// PlanEntry is the JSON shape of one assessed plan: the batch array of
// `susc plans -json`, the per-line objects of `-json -stream`, and the
// server's plans NDJSON records. The plan stays the sweep's vector
// (plans.Plan): no map is built to encode it.
type PlanEntry struct {
	Plan   plans.Plan
	Report *verify.Report
}

// ToPlanEntry converts an assessment to its wire shape.
func ToPlanEntry(a plans.Assessment) PlanEntry {
	return PlanEntry{Plan: a.Plan, Report: a.Report}
}

// MarshalJSON returns AppendJSON's bytes in a fresh slice, sized for the
// plan and a short report.
func (e PlanEntry) MarshalJSON() ([]byte, error) {
	const shortReport = len(`{"verdict":"security-violation","states":1000}`)
	return e.AppendJSON(make([]byte, 0, len(`{"plan":,"report":}`)+e.Plan.JSONLen()+shortReport)), nil
}

// AppendJSON appends {"plan":{…},"report":…} to b: the plan's bindings in
// sorted request order (plans.Plan.AppendJSON), then the report (null when
// there is none) — the bytes encoding/json writes for the plan as a
// map[string]string, compact and HTML-escaped, so json.Encoder.Encode
// writes them unchanged before its newline.
func (e PlanEntry) AppendJSON(b []byte) []byte {
	b = append(b, `{"plan":`...)
	b = e.Plan.AppendJSON(b)
	b = append(b, `,"report":`...)
	if e.Report == nil {
		b = append(b, "null"...)
	} else {
		b = e.Report.AppendJSON(b)
	}
	return append(b, '}')
}

// LintEntry is the JSON shape of one diagnostic in NDJSON output — the
// lint.Diagnostic fields plus the file the finding is in. lint, explain,
// audit and the served lint/audit endpoints all emit it.
type LintEntry struct {
	File string `json:"file"`
	lint.Diagnostic
}

// CoverageEntry is the JSON shape of one client's coverage tables in
// audit NDJSON output, emitted after the diagnostic lines.
type CoverageEntry struct {
	File     string              `json:"file"`
	Coverage lint.ClientCoverage `json:"coverage"`
}

// ExitCode maps a run's final error onto the exit-code protocol every
// front end shares: 0 success, 2 for an internal error (an isolated
// worker panic — the message carries the repro unit), 3 for a budget
// cutoff (state/edge limit, timeout, interruption), 1 for ordinary
// findings and failures. Internal errors outrank budget cutoffs, which
// outrank findings.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	var ie *budget.InternalError
	if errors.As(err, &ie) {
		return 2
	}
	var ee *budget.ExhaustedError
	if errors.As(err, &ee) {
		return 3
	}
	return 1
}
