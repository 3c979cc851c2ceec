package engine

import (
	"errors"
	"slices"
	"strings"

	"susc/internal/budget"
	"susc/internal/hexpr"
	"susc/internal/lint"
	"susc/internal/network"
	"susc/internal/plans"
	"susc/internal/verify"
)

// PlanEntry is the JSON shape of one assessed plan: the batch array of
// `susc plans -json`, the per-line objects of `-json -stream`, and the
// server's plans NDJSON records.
type PlanEntry struct {
	Plan   network.Plan
	Report *verify.Report
}

// ToPlanEntry converts an assessment to its wire shape.
func ToPlanEntry(a plans.Assessment) PlanEntry {
	return PlanEntry{Plan: a.Plan, Report: a.Report}
}

// MarshalJSON writes {"plan":{…},"report":…}: the plan's bindings in
// sorted request order, then the report (null when there is none) — the
// bytes encoding/json writes for the plan as a map[string]string.
func (e PlanEntry) MarshalJSON() ([]byte, error) {
	type binding struct {
		req hexpr.RequestID
		loc hexpr.Location
	}
	var scratch [16]binding
	bs := scratch[:0]
	for r, l := range e.Plan {
		bs = append(bs, binding{r, l})
	}
	slices.SortFunc(bs, func(x, y binding) int { return strings.Compare(string(x.req), string(y.req)) })
	b := make([]byte, 0, 64+24*len(bs))
	b = append(b, `{"plan":{`...)
	for i, x := range bs {
		if i > 0 {
			b = append(b, ',')
		}
		b = verify.AppendJSONString(b, string(x.req))
		b = append(b, ':')
		b = verify.AppendJSONString(b, string(x.loc))
	}
	b = append(b, `},"report":`...)
	if e.Report == nil {
		b = append(b, "null"...)
	} else {
		b = e.Report.AppendJSON(b)
	}
	return append(b, '}'), nil
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
