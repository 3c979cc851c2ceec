package engine

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"susc/internal/budget"
	"susc/internal/lint"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/store"
	"susc/internal/verify"
)

// A Mode is one verification mode: a `susc <name> FILE` command and,
// when Served, the /v1/<name> endpoint of `susc serve`. Both front ends
// parse the mode's parameters with the same flag definitions and call
// the same Run, so a served record is the CLI's -json record.
type Mode struct {
	Name     string
	Synopsis string
	// Params are the parameters the mode reads, the budget trio last.
	Params []*Param
	Served bool
	Run    func(s *Session, r *Request, out *Output) error
}

// Modes is the mode table.
var Modes = []*Mode{
	{Name: "lint", Served: true, Run: runLint,
		Synopsis: "static analysis: positioned diagnostics (SUSC000–010)",
		Params:   withBudget(severityParam, jsonParam, statsParam, cacheParam)},
	{Name: "explain", Run: runExplain,
		Synopsis: "model-check every declaration and print a minimal witness per finding (SUSC011–015)",
		Params:   withBudget(codeParam, jsonParam, wdotParam)},
	{Name: "audit", Served: true, Run: runAudit,
		Synopsis: "whole-network security-flow audit of every valid plan, with coverage tables (SUSC017–021)",
		Params:   withBudget(planParam, severityParam, jsonParam, statsParam, wdotParam, cacheParam)},
	{Name: "plans", Served: true, Run: runPlans,
		Synopsis: "enumerate and classify every plan of one client",
		Params:   withBudget(ClientParam, pruneParam, jsonParam, streamParam, statsParam, cacheParam)},
	{Name: "check", Served: true, Run: runCheck,
		Synopsis: "validate one client's declared plan",
		Params:   withBudget(ClientParam, jsonParam, statsParam, cacheParam)},
	{Name: "checkall", Served: true, Run: runCheckAll,
		Synopsis: "validate every declared client at once, optionally under bounded availability, and audit the declared plans",
		Params:   withBudget(CapParam, jsonParam, statsParam, cacheParam)},
}

// LookupMode returns the mode called name, or nil.
func LookupMode(name string) *Mode {
	for _, m := range Modes {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Flags defines the mode's parameters on fs — only the served ones when
// served — and returns the Params they parse into.
func (m *Mode) Flags(fs *flag.FlagSet, served bool) *Params {
	p := NewParams()
	for _, pa := range m.Params {
		if pa.Served || !served {
			pa.Define(fs, p)
		}
	}
	return p
}

// Params holds every mode parameter, each bound to one Param.
type Params struct {
	Client    string
	Prune     bool
	Plan      bool
	Cap       string
	Severity  string
	Code      string
	JSON      bool
	Stream    bool
	WDot      bool
	Stats     bool
	Cache     string
	Timeout   time.Duration
	MaxStates int64
	MaxEdges  int64
}

// NewParams returns every parameter at its default.
func NewParams() *Params {
	return &Params{Prune: true, Severity: "info"}
}

// Limits is the budget the trio asks for.
func (p *Params) Limits() budget.Limits {
	return budget.Limits{Timeout: p.Timeout, MaxStates: p.MaxStates, MaxEdges: p.MaxEdges}
}

// A Param is one mode parameter: a CLI flag and, when Served, a query
// parameter of the served modes that read it. Help back-quotes the
// value's placeholder, which flag.UnquoteUsage reads.
type Param struct {
	Name   string
	Help   string
	Served bool
	field  func(*Params) any
}

// Define registers the parameter on fs, bound to its field of p, with
// the field's current value as the default.
func (pa *Param) Define(fs *flag.FlagSet, p *Params) {
	switch v := pa.field(p).(type) {
	case *string:
		fs.StringVar(v, pa.Name, *v, pa.Help)
	case *bool:
		fs.BoolVar(v, pa.Name, *v, pa.Help)
	case *int:
		fs.IntVar(v, pa.Name, *v, pa.Help)
	case *int64:
		fs.Int64Var(v, pa.Name, *v, pa.Help)
	case *time.Duration:
		fs.DurationVar(v, pa.Name, *v, pa.Help)
	}
}

var (
	ClientParam = &Param{Name: "client", Served: true, field: func(p *Params) any { return &p.Client },
		Help: "operate on the client declaration `NAME` (optional when the file declares one)"}
	CapParam = &Param{Name: "cap", Served: true, field: func(p *Params) any { return &p.Cap },
		Help: "bounded availability, replicas per service, e.g. br=2,s3=1 (`loc=n,…`)"}
	pruneParam = &Param{Name: "prune", Served: true, field: func(p *Params) any { return &p.Prune },
		Help: "prune non-compliant bindings during plan synthesis"}
	planParam = &Param{Name: "plan", Served: true, field: func(p *Params) any { return &p.Plan },
		Help: "audit only each client's declared plan instead of the whole valid-plan family"}
	severityParam = &Param{Name: "severity", Served: true, field: func(p *Params) any { return &p.Severity },
		Help: "report findings at or above this `LEVEL` (info, warning, error)"}
	timeoutParam = &Param{Name: "timeout", Served: true, field: func(p *Params) any { return &p.Timeout },
		Help: "wall-clock budget `D` (0 = none)"}
	maxStatesParam = &Param{Name: "max-states", Served: true, field: func(p *Params) any { return &p.MaxStates },
		Help: "state budget `N` for the exploration (0 = unlimited)"}
	maxEdgesParam = &Param{Name: "max-edges", Served: true, field: func(p *Params) any { return &p.MaxEdges },
		Help: "edge budget `N` for the exploration (0 = unlimited)"}

	// The server fixes these itself: it always streams JSON records over
	// its own session.
	codeParam = &Param{Name: "code", field: func(p *Params) any { return &p.Code },
		Help: "only report findings with this diagnostic code `SUSCnnn`"}
	jsonParam = &Param{Name: "json", field: func(p *Params) any { return &p.JSON },
		Help: "JSON output (lint, explain, audit and -stream: NDJSON, one record per line)"}
	streamParam = &Param{Name: "stream", field: func(p *Params) any { return &p.Stream },
		Help: "print each assessment as it is produced (with -json, one object per line)"}
	wdotParam = &Param{Name: "wdot", field: func(p *Params) any { return &p.WDot },
		Help: "render each witness as a Graphviz digraph instead of text"}
	statsParam = &Param{Name: "stats", field: func(p *Params) any { return &p.Stats },
		Help: "print per-engine work counters on stderr"}
	cacheParam = &Param{Name: "cache", field: func(p *Params) any { return &p.Cache },
		Help: "persist verdicts in `DIR`/susc.store and reuse them across runs (incremental re-verification)"}
)

// withBudget appends the budget trio every mode reads.
func withBudget(ps ...*Param) []*Param {
	return append(ps, timeoutParam, maxStatesParam, maxEdgesParam)
}

// A Request is one run of a mode.
type Request struct {
	File   string // the name findings anchor to
	Src    string
	Budget *budget.Budget
	Params
}

// Output is where a mode run writes. The CLI sets Stdout and Stderr:
// text, or under -json NDJSON records and indented documents, goes to
// Stdout, and the findings riding along with a checkall verdict go to
// Stderr as text. The server sets Record and Note, and every record,
// document and note becomes one line of its NDJSON stream.
type Output struct {
	Stdout, Stderr io.Writer
	Record         func(v any) error
	Note           func(kind string, e LintEntry)
	enc            *json.Encoder
}

// record emits one NDJSON record.
func (o *Output) record(v any) error {
	if o.Record != nil {
		return o.Record(v)
	}
	if o.enc == nil {
		o.enc = json.NewEncoder(o.Stdout)
	}
	return o.enc.Encode(v)
}

// doc emits a whole JSON document: indented on the CLI, one record when
// served.
func (o *Output) doc(v any) error {
	if o.Record != nil {
		return o.Record(v)
	}
	enc := json.NewEncoder(o.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// note reports a finding that rides along with a checkall verdict; the
// CLI adds hint, the command that prints its witness.
func (o *Output) note(kind string, e LintEntry, hint string) {
	if o.Note != nil {
		o.Note(kind, e)
		return
	}
	fmt.Fprintf(o.Stderr, "%s: %s\n", kind, e.Diagnostic)
	if hint != "" {
		fmt.Fprintf(o.Stderr, "%s: \t%s\n", kind, hint)
	}
}

// diagnostics writes findings as NDJSON records, as witness digraphs
// (-wdot), or as positioned text followed by each witness trace.
func (o *Output) diagnostics(r *Request, diags []lint.Diagnostic) error {
	switch {
	case r.JSON:
		for _, d := range diags {
			if err := o.record(LintEntry{File: r.File, Diagnostic: d}); err != nil {
				return err
			}
		}
	case r.WDot:
		for i, d := range diags {
			if d.Witness != nil {
				fmt.Fprint(o.Stdout, d.Witness.DOT(fmt.Sprintf("%s_%d", d.Code, i)))
			}
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(o.Stdout, "%s:%s\n", r.File, d)
			for _, rel := range d.Related {
				fmt.Fprintf(o.Stdout, "\t%s:%s: %s\n", r.File, rel.Span, rel.Message)
			}
			if d.Witness != nil {
				fmt.Fprint(o.Stdout, d.Witness.Render(r.File))
			}
		}
	}
	return nil
}

// printStats reports a run's work counters, in the order CI parses them:
// the analyzer lines, the memory tier, its whole-report verdicts, the
// fused engine, the disk tier (the overall line, then one per record kind
// that saw traffic).
func (s *Session) printStats(w io.Writer, mode string, an *lint.Stats, fused *plans.FusedStats) {
	if an != nil {
		for _, a := range an.Analyzers {
			fmt.Fprintf(w, "stats: %s %-14s %d finding(s) in %v\n", mode, a.Name, a.Findings, a.Duration)
		}
	}
	st := s.Cache.Stats()
	fmt.Fprintf(w, "stats: cache %d hits, %d misses (%.1f%% hit rate), %d entries, ~%d bytes\n",
		st.Hits(), st.Misses(), st.HitRate()*100, st.Entries(), st.ApproxBytes)
	fmt.Fprintf(w, "stats: reports %d hits, %d misses, %d entries\n",
		st.ReportHits, st.ReportMisses, st.ReportEntries)
	if fused != nil {
		fmt.Fprintf(w,
			"stats: fused %d plans assessed, %d states expanded, %d edges, %d replay states, %d memo hits, %d bindings pruned\n",
			fused.PlansAssessed.Load(), fused.StatesExpanded.Load(), fused.EdgesBuilt.Load(),
			fused.ReplayStates.Load(), fused.ReplayMemoHits.Load(), fused.BindingsPruned.Load())
	}
	if s.Disk == nil {
		return
	}
	ds := s.Disk.Stats()
	fmt.Fprintf(w,
		"stats: store %d hits, %d misses (%.1f%% hit rate), %d write-backs, %d entries, ~%d bytes, opened in %v (%d records replayed)\n",
		ds.Hits(), ds.Misses(), ds.HitRate()*100, ds.Writebacks(),
		ds.Entries(), ds.Bytes(), ds.OpenTime, ds.Replayed)
	if ds.HealedBytes > 0 {
		fmt.Fprintf(w, "stats: store healed a torn tail of %d byte(s) on open\n", ds.HealedBytes)
	}
	if ds.Reset {
		fmt.Fprintln(w, "stats: store reset on open (engine fingerprint or format version changed)")
	}
	for _, k := range store.Kinds() {
		t := ds.PerKind[k]
		if t.Hits+t.Misses+t.Writebacks == 0 {
			continue
		}
		fmt.Fprintf(w, "stats: store/%s %d hits, %d misses, %d write-backs, %d entries, ~%d bytes\n",
			store.KindName(k), t.Hits, t.Misses, t.Writebacks, t.Entries, t.Bytes)
	}
}

// runLint runs the static-analysis suite. It parses leniently, so one run
// reports several independent problems and parse errors become
// positioned SUSC000 findings. Error-severity findings fail the run.
func runLint(s *Session, r *Request, out *Output) error {
	minSev, err := lint.ParseSeverity(r.Severity)
	if err != nil {
		return err
	}
	opts := lint.Options{MinSeverity: minSev, Budget: r.Budget}
	if r.Stats {
		opts.Stats = &lint.Stats{}
	}
	diags := s.Lint(r.Src, opts)
	if err := out.diagnostics(r, diags); err != nil {
		return err
	}
	counts := map[lint.Severity]int{}
	for _, d := range diags {
		counts[d.Severity]++
	}
	if r.Stats {
		s.printStats(out.Stderr, "lint", opts.Stats, nil)
	}
	if !r.JSON && len(diags) > 0 {
		fmt.Fprintf(out.Stderr, "lint: %d finding(s): %d error(s), %d warning(s), %d info\n",
			len(diags), counts[lint.Error], counts[lint.Warning], counts[lint.Info])
	}
	return analysisErr("lint", diags, r.Budget, counts[lint.Error], "error(s)")
}

// runExplain runs every analyzer, the semantic model checkers
// (SUSC011–015) included, and reports the findings that carry a
// counterexample witness, each with its minimal trace; -code keeps one
// diagnostic code. It parses leniently: the analyzers skip what does not
// parse and still explain the declarations that do. Error-severity
// witnesses fail the run.
func runExplain(s *Session, r *Request, out *Output) error {
	diags := s.Lint(r.Src, lint.Options{Analyzers: lint.AllAnalyzers(), Budget: r.Budget})
	var kept []lint.Diagnostic
	errs := 0
	for _, d := range diags {
		if d.Witness == nil || (r.Code != "" && d.Code != r.Code) {
			continue
		}
		kept = append(kept, d)
		if d.Severity == lint.Error {
			errs++
		}
	}
	if err := out.diagnostics(r, kept); err != nil {
		return err
	}
	if !r.JSON && !r.WDot && len(kept) > 0 {
		fmt.Fprintf(out.Stderr, "explain: %d finding(s) with witnesses, %d error(s)\n", len(kept), errs)
	}
	return analysisErr("explain", diags, r.Budget, errs, "error(s)")
}

// runAudit runs the whole-network security-flow audit (SUSC017–021): an
// abstract interpretation of the valid plans of every client — at most
// 256 per client, the first in plan-key order — annotating each
// reachable event with its active-framing set, then the coverage
// analyzers over the result. Text output prints the findings with their
// witnesses, then the per-client, per-plan coverage tables; JSON emits
// the diagnostic records, then one coverage record per client. -plan
// audits each client's declared plan only. Warning-or-worse findings
// fail the run. It parses leniently: a parse error is one SUSC000
// finding.
func runAudit(s *Session, r *Request, out *Output) error {
	minSev, err := lint.ParseSeverity(r.Severity)
	if err != nil {
		return err
	}
	opts := lint.Options{MinSeverity: minSev, Budget: r.Budget, AuditDeclaredOnly: r.Plan}
	if r.Stats {
		opts.Stats = &lint.Stats{}
	}
	res := s.Audit(r.Src, opts)
	if err := out.diagnostics(r, res.Diagnostics); err != nil {
		return err
	}
	switch {
	case r.JSON:
		for _, cc := range res.Coverage {
			if err := out.record(CoverageEntry{File: r.File, Coverage: cc}); err != nil {
				return err
			}
		}
	case !r.WDot:
		fmt.Fprint(out.Stdout, res.RenderCoverage())
		if !res.Complete {
			fmt.Fprintln(out.Stdout, "audit incomplete: some plan families were skipped, capped or cut off; the universally quantified codes (SUSC017/018/020) stayed silent")
		}
	}
	if r.Stats {
		s.printStats(out.Stderr, "audit", opts.Stats, nil)
	}
	n := warnings(res.Diagnostics)
	if !r.JSON && len(res.Diagnostics) > 0 {
		fmt.Fprintf(out.Stderr, "audit: %d finding(s), %d at warning or above\n", len(res.Diagnostics), n)
	}
	return analysisErr("audit", res.Diagnostics, r.Budget, n, "finding(s)")
}

// runPlans enumerates and classifies every plan of one client. -stream
// prints each assessment as the fused engine produces it, so first
// results appear while later plans are still being replayed; a served
// run always streams. Partial results still print before an isolated
// worker panic (exit 2) or a budget cutoff (exit 3) ends the run.
func runPlans(s *Session, r *Request, out *Output) error {
	f, err := parser.ParseFile(r.Src)
	if err != nil {
		return err
	}
	c, err := SelectClient(f, r.Client)
	if err != nil {
		return err
	}
	opts := plans.Options{PruneNonCompliant: r.Prune, Budget: r.Budget}
	if r.Stats {
		opts.Stats = &plans.FusedStats{}
	}
	total, valid := 0, 0
	emit := func(a plans.Assessment) error {
		total++
		if a.Report.Verdict == verify.Valid {
			valid++
		}
		if r.JSON {
			return out.record(ToPlanEntry(a))
		}
		fmt.Fprintf(out.Stdout, "%-30s %s\n", a.Plan, a.Report)
		return nil
	}
	var as []plans.Assessment
	var runErr error
	if r.Stream {
		runErr = s.AssessStream(f, c, opts, emit)
	} else {
		as, runErr = s.Assess(f, c, opts)
	}
	if runErr != nil && !errors.As(runErr, new(*budget.InternalError)) {
		return runErr
	}
	switch {
	case r.Stream:
	case r.JSON:
		entries := make([]PlanEntry, len(as))
		for i, a := range as {
			entries[i] = ToPlanEntry(a)
		}
		if err := out.doc(entries); err != nil {
			return err
		}
	default:
		for _, a := range as {
			emit(a)
		}
	}
	if !r.JSON {
		fmt.Fprintf(out.Stdout, "%d plan(s), %d valid\n", total, valid)
	}
	if r.Stats {
		s.printStats(out.Stderr, "plans", nil, opts.Stats)
	}
	if runErr != nil {
		return runErr
	}
	if e := r.Budget.Exhausted(); e != nil {
		return e
	}
	return nil
}

// runCheck validates one client's declared plan.
func runCheck(s *Session, r *Request, out *Output) error {
	f, err := parser.ParseFile(r.Src)
	if err != nil {
		return err
	}
	c, err := SelectClient(f, r.Client)
	if err != nil {
		return err
	}
	rep, err := s.CheckPlan(f, c, r.Budget)
	if err != nil {
		return err
	}
	if r.Stats {
		s.printStats(out.Stderr, "check", nil, nil)
	}
	if r.JSON {
		if err := out.doc(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out.Stdout, "client %s under %s: %s\n", c.Name, c.Plan, rep)
	}
	return CheckErr(rep, r.Budget)
}

// runCheckAll validates every declared client, under -cap's bounded
// availability when given (see Session.CheckAll). The lint and
// declared-plan audit findings ride along with the verdict, out of the
// record stream; their witnesses stay behind `susc explain` and `susc
// audit -plan`.
func runCheckAll(s *Session, r *Request, out *Output) error {
	f, err := parser.ParseFile(r.Src)
	if err != nil {
		return err
	}
	caps, err := FileCaps(f, r.Cap)
	if err != nil {
		return err
	}
	res, runErr := s.CheckAll(f, r.Src, caps, r.Budget)
	for _, d := range res.Lint {
		hint := ""
		if d.Witness != nil {
			hint = fmt.Sprintf("run `susc explain FILE -code %s` for the %d-step witness", d.Code, len(d.Witness.Steps))
		}
		out.note("lint", LintEntry{File: r.File, Diagnostic: d}, hint)
	}
	if res.Audit != nil {
		for _, d := range res.Audit.Diagnostics {
			hint := ""
			if d.Witness != nil && d.Code != lint.CodeInternalError {
				hint = fmt.Sprintf("run `susc audit FILE -plan` for the %d-step witness", len(d.Witness.Steps))
			}
			out.note("audit", LintEntry{File: r.File, Diagnostic: d}, hint)
		}
	}
	if runErr != nil {
		return runErr
	}
	if r.Stats {
		s.printStats(out.Stderr, "checkall", nil, nil)
	}
	if r.JSON {
		if err := out.doc(res.Report); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out.Stdout, "network of %d client(s): %s\n", len(f.Clients), res.Report)
	}
	return res.Err(r.Budget)
}
