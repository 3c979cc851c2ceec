package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"susc/internal/budget"
	"susc/internal/hexpr"
	"susc/internal/lint"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// Lint runs the static-analysis suite at whole-file granularity over the
// session's tiers. A nil opts.Cache defaults to the session cache.
func (s *Session) Lint(src string, opts lint.Options) []lint.Diagnostic {
	if opts.Cache == nil {
		opts.Cache = s.Cache
	}
	return lint.SourceCached(src, s.Disk, opts)
}

// Audit runs the whole-network security-flow audit over the session's
// tiers. A nil opts.Cache defaults to the session cache (whose attached
// disk tier the audit pipeline reuses).
func (s *Session) Audit(src string, opts lint.Options) *lint.AuditResult {
	if opts.Cache == nil {
		opts.Cache = s.Cache
	}
	return lint.AuditSource(src, opts)
}

// Assess enumerates and classifies every plan of one client through the
// session cache.
func (s *Session) Assess(f *parser.File, c parser.ClientDecl, opts plans.Options) ([]plans.Assessment, error) {
	opts.Cache = s.Cache
	return plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, opts)
}

// AssessStream is Assess with results yielded as the fused engine
// produces them.
func (s *Session) AssessStream(f *parser.File, c parser.ClientDecl, opts plans.Options, yield func(plans.Assessment) error) error {
	opts.Cache = s.Cache
	return plans.AssessStream(f.Repo, f.Table, c.Loc, c.Expr, opts, yield)
}

// CheckPlan validates one client's declared plan through the session
// cache.
func (s *Session) CheckPlan(f *parser.File, c parser.ClientDecl, bud *budget.Budget) (*verify.Report, error) {
	if c.Plan == nil {
		return nil, fmt.Errorf("client %s declares no plan", c.Name)
	}
	return verify.CheckPlanOpts(f.Repo, f.Table, c.Loc, c.Expr, c.Plan,
		verify.Options{Cache: s.Cache, Budget: bud})
}

// CheckAllResult is everything one checkall run produced: the network
// verdict plus the lint findings and declared-plan audit that ride along
// with it. The front ends render these; Err folds them into the
// exit-code protocol.
type CheckAllResult struct {
	Report *verify.Report
	Lint   []lint.Diagnostic // warning-or-worse findings, semantic analyzers included
	Audit  *lint.AuditResult // declared-plan flow audit (SUSC017–021)
}

// CheckAll validates every declared client, optionally under bounded
// availability. Without capacity bounds the components of a network
// never interact, so each client is checked by its own exploration — the
// per-client verdicts persist independently in the session's disk tier,
// which is what makes re-checking an edited repository proportional to
// the edit's dependency cone. With bounded availability the clients
// compete for replicas and only the whole-network product exploration is
// sound, so the verdict is checked (and persisted) whole.
//
// The lint and audit passes always run first, so a result carrying an
// error may still carry findings worth rendering.
func (s *Session) CheckAll(f *parser.File, src string, caps map[hexpr.Location]int, bud *budget.Budget) (*CheckAllResult, error) {
	res := &CheckAllResult{}
	if len(f.Clients) == 0 {
		return res, fmt.Errorf("the file declares no clients")
	}
	// Lint findings surface alongside the verdict, semantic analyzers
	// included; witness details stay behind `susc explain`. The file
	// parsed strictly, so there are no parse-level issues to forward.
	// With a disk tier, the whole run's findings persist under the file's
	// content hash.
	res.Lint = lint.RunCached(f, nil, src, s.Disk,
		lint.Options{MinSeverity: lint.Warning, Analyzers: lint.AllAnalyzers(), Cache: s.Cache})
	// Declared-plan flow audit (SUSC017–021): each client's declared plan
	// is flow-analyzed; warning-or-worse findings fail the run. Full plan
	// families stay behind `susc audit`.
	res.Audit = lint.Audit(f, nil, lint.Options{
		MinSeverity: lint.Warning, Cache: s.Cache, Budget: bud, AuditDeclaredOnly: true})
	var specs []verify.ClientSpec
	for _, c := range f.Clients {
		if c.Plan == nil {
			return res, fmt.Errorf("client %s declares no plan", c.Name)
		}
		specs = append(specs, verify.ClientSpec{Loc: c.Loc, Client: c.Expr, Plan: c.Plan})
	}
	opts := verify.Options{Cache: s.Cache, Budget: bud}
	if caps != nil {
		opts.Capacities = caps
		r, err := verify.CheckNetwork(f.Repo, f.Table, specs, opts)
		if err != nil {
			return res, err
		}
		res.Report = r
		return res, nil
	}
	// Component-wise validation: the network is valid iff every client
	// is, and the first failing client's report is the network's. Valid
	// components sum their explored states.
	agg := &verify.Report{Verdict: verify.Valid}
	for _, sp := range specs {
		cr, err := verify.CheckPlanOpts(f.Repo, f.Table, sp.Loc, sp.Client, sp.Plan, opts)
		if err != nil {
			return res, err
		}
		if cr.Verdict != verify.Valid {
			agg = cr
			break
		}
		agg.States += cr.States
	}
	res.Report = agg
	return res, nil
}

// Err folds a finished checkall run, one whose CheckAll returned no
// error, onto the exit-code protocol: an isolated analyzer panic
// outranks a budget cutoff, which outranks an invalid network, which
// outranks audit findings.
func (r *CheckAllResult) Err(bud *budget.Budget) error {
	if msg := internalIn(r.Audit.Diagnostics); msg != "" {
		return &budget.InternalError{Unit: "audit", Value: msg}
	}
	if r.Report.Verdict == verify.Unknown {
		if e := bud.Exhausted(); e != nil {
			return e
		}
		return fmt.Errorf("verdict unknown: %s", r.Report.Reason)
	}
	if r.Report.Verdict != verify.Valid {
		return fmt.Errorf("network is not valid")
	}
	if e := bud.Exhausted(); e != nil {
		return e
	}
	if n := warnings(r.Audit.Diagnostics); n > 0 {
		return fmt.Errorf("audit: %d finding(s)", n)
	}
	return nil
}

// internalIn scans diagnostics for an isolated analyzer panic (a SUSC016
// "failed" diagnostic that is not a budget cutoff).
func internalIn(diags []lint.Diagnostic) string {
	for _, d := range diags {
		if d.Code == lint.CodeInternalError && !strings.HasPrefix(d.Message, "analysis stopped") {
			return d.Message
		}
	}
	return ""
}

// analysisErr folds a finished lint, explain or audit run onto the
// exit-code protocol: an isolated analyzer panic (exit 2) outranks a
// budget cutoff (exit 3), which outranks n failing findings (exit 1).
func analysisErr(unit string, diags []lint.Diagnostic, bud *budget.Budget, n int, findings string) error {
	if msg := internalIn(diags); msg != "" {
		return &budget.InternalError{Unit: unit, Value: msg}
	}
	if e := bud.Exhausted(); e != nil {
		return e
	}
	if n > 0 {
		return fmt.Errorf("%s: %d %s", unit, n, findings)
	}
	return nil
}

// warnings counts the warning-or-worse findings, internal errors
// excluded.
func warnings(diags []lint.Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity >= lint.Warning && d.Code != lint.CodeInternalError {
			n++
		}
	}
	return n
}

// CheckErr folds a single-plan verdict onto the exit-code protocol.
func CheckErr(r *verify.Report, bud *budget.Budget) error {
	if r.Verdict == verify.Unknown {
		if e := bud.Exhausted(); e != nil {
			return e
		}
		return fmt.Errorf("verdict unknown: %s", r.Reason)
	}
	if r.Verdict != verify.Valid {
		return fmt.Errorf("plan is not valid")
	}
	return nil
}

// SelectClient resolves -client: an empty name picks the file's only
// client, anything else must match a declaration.
func SelectClient(f *parser.File, name string) (parser.ClientDecl, error) {
	if name == "" {
		if len(f.Clients) == 1 {
			return f.Clients[0], nil
		}
		return parser.ClientDecl{}, fmt.Errorf("the file declares %d clients; pick one with -client", len(f.Clients))
	}
	return f.Client(name)
}

// ParseCaps parses "loc=n,loc=n" availability specs: each location is
// non-empty and given once, each count a whole decimal number of
// replicas, n >= 0. Spaces around locations and counts are dropped.
func ParseCaps(spec string) (map[hexpr.Location]int, error) {
	out := map[hexpr.Location]int{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(part, "=")
		loc := hexpr.Location(strings.TrimSpace(name))
		if !ok || loc == "" {
			return nil, fmt.Errorf("-cap wants loc=n pairs, got %q", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-cap %q: the replica count must be a whole number n >= 0", part)
		}
		if _, dup := out[loc]; dup {
			return nil, fmt.Errorf("-cap %q: location %s is given twice", part, loc)
		}
		out[loc] = n
	}
	return out, nil
}

// FileCaps parses a -cap spec for the file f: ParseCaps, and every
// location must be a service f's repository declares. An empty spec
// bounds nothing (nil).
func FileCaps(f *parser.File, spec string) (map[hexpr.Location]int, error) {
	if spec == "" {
		return nil, nil
	}
	caps, err := ParseCaps(spec)
	if err != nil {
		return nil, err
	}
	var undeclared []string
	for loc := range caps {
		if _, ok := f.Repo[loc]; !ok {
			undeclared = append(undeclared, string(loc))
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, fmt.Errorf("-cap: the file declares no service at %s", strings.Join(undeclared, ", "))
	}
	return caps, nil
}
