// Package lint is a static-analysis pass over specification files: a
// suite of analyzers inspects a parsed file and reports positioned,
// machine-readable diagnostics — dead services, vacuous policies,
// non-contractive recursion, dangling references and the like. It is the
// "explain why" companion to the yes/no answers of internal/valid,
// internal/compliance and internal/plans, in the spirit of go/analysis:
// each Analyzer is a named, documented unit with a Run function over a
// shared Pass.
//
// Diagnostics carry a stable code (SUSC000…SUSC010), a severity, a source
// span from the parser's side table, and optional related positions. The
// suite runs on leniently parsed files (parser.ParseFileLenient), so a
// single run can report several independent problems.
package lint

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/memo"
	"susc/internal/parser"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info marks stylistic or dead-code findings.
	Info Severity = iota
	// Warning marks suspicious constructs that do not by themselves make
	// every plan invalid.
	Warning
	// Error marks findings that break the file for some or all analyses.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its lower-case name, keeping the
// JSON stream stable against renumbering.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON is the inverse of MarshalJSON; diagnostics round-trip
// through the persistent store as JSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	v, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseSeverity parses "info", "warning" or "error".
func ParseSeverity(text string) (Severity, error) {
	switch text {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("lint: unknown severity %q (want info, warning or error)", text)
}

// Diagnostic codes, one per finding class. Codes are stable public API:
// tests, editors and CI pipelines key on them.
const (
	// CodeIllFormed: the declaration does not satisfy the well-formedness
	// restrictions of Definition 1 (or the file does not parse at all).
	CodeIllFormed = "SUSC000"
	// CodeNonContractive: recursion that can diverge without progress —
	// an unguarded or non-tail recursion variable (μh.h).
	CodeNonContractive = "SUSC001"
	// CodeFraming: redundant or ill-nested security framings.
	CodeFraming = "SUSC002"
	// CodeVacuousPolicy: a policy whose offending state is unreachable —
	// its framings can never fire.
	CodeVacuousPolicy = "SUSC003"
	// CodeAlwaysViolated: a policy instance violated by the empty history —
	// every service framed with it is invalid.
	CodeAlwaysViolated = "SUSC004"
	// CodeDeadService: a repository service no request in the file
	// complies with — never selectable by any plan.
	CodeDeadService = "SUSC005"
	// CodeUnmatchedRequest: a request no repository service complies
	// with — every plan for its owner is invalid.
	CodeUnmatchedRequest = "SUSC006"
	// CodeDuplicateDecl: duplicate or shadowed declarations.
	CodeDuplicateDecl = "SUSC007"
	// CodeUnusedInstance: a policy instance never used in a with or
	// enforce clause.
	CodeUnusedInstance = "SUSC008"
	// CodeUnusedPolicy: a policy template never instantiated or used.
	CodeUnusedPolicy = "SUSC009"
	// CodeDanglingRef: a dangling reference — a plan binding to an
	// unknown service, a plan entry for a request nothing opens, or a
	// with/enforce clause naming an unknown policy instance.
	CodeDanglingRef = "SUSC010"

	// Semantic codes (SUSC011…SUSC015) are emitted by the whole-network
	// model-checking analyzers (SemanticAnalyzers); their diagnostics carry
	// a Witness — a minimal counterexample trace.

	// CodeViolableFraming: a declaration whose history can violate one of
	// its own framed policies (Theorem 1 model check fails).
	CodeViolableFraming = "SUSC011"
	// CodeDeadlockableRequest: a request whose conversation deadlocks
	// against the service its owner's plan binds it to, although some
	// other repository service would comply.
	CodeDeadlockableRequest = "SUSC012"
	// CodeUnrealizableRequest: every request of a client complies with
	// some service individually, yet no complete plan is valid — the
	// requests' constraints are jointly unsatisfiable.
	CodeUnrealizableRequest = "SUSC013"
	// CodeSubsumedFraming: a framing nested inside a framing of a
	// *different* policy whose language is strictly stronger on the
	// declaration's alphabet — the inner framing can never fire first.
	CodeSubsumedFraming = "SUSC014"
	// CodeUnreachableState: a usage-automaton state unreachable from the
	// start, or a transition that can never lie on a violating run.
	CodeUnreachableState = "SUSC015"

	// Audit codes (SUSC017…SUSC021) are emitted by the whole-network
	// security-flow audit (AuditAnalyzers, `susc audit`): an abstract
	// interpretation annotating every reachable event occurrence with its
	// active-framing set, per valid plan.

	// CodeUnguardedEvent: a critical event (one some declared policy
	// watches) reachable with no watching policy active, under every
	// audited plan in which it occurs.
	CodeUnguardedEvent = "SUSC017"
	// CodeRedundantFraming: a framing implied at every reachable opening
	// by the ambient active set — the whole-network generalisation of
	// SUSC014's pairwise, single-declaration check.
	CodeRedundantFraming = "SUSC018"
	// CodePlanDependentCoverage: an event guarded under some valid plans
	// but reachable unguarded under others.
	CodePlanDependentCoverage = "SUSC019"
	// CodeDeadPolicy: a policy referenced by some framing yet never
	// active on any reachable path of any valid plan.
	CodeDeadPolicy = "SUSC020"
	// CodeFramingLeak: a framing scope opened but never closed on some
	// path — a reachable configuration from which the scope can no longer
	// close.
	CodeFramingLeak = "SUSC021"

	// CodeInternalError: an analyzer panicked and was isolated — the
	// diagnostic's message carries the analyzer name and panic value as a
	// repro bundle, and the remaining analyzers ran to completion. Also
	// used when an analyzer's exploration was cut short by the budget, so
	// absent findings are never mistaken for clean code.
	CodeInternalError = "SUSC016"
)

// Related is a secondary position attached to a diagnostic (the first of
// two duplicate declarations, the policy template of a bad instance, …).
type Related struct {
	Span    parser.Span `json:"span"`
	Message string      `json:"message"`
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Code     string      `json:"code"`
	Severity Severity    `json:"severity"`
	Span     parser.Span `json:"span"`
	Message  string      `json:"message"`
	Related  []Related   `json:"related,omitempty"`
	// Witness is the structured counterexample attached by the semantic
	// analyzers (SUSC011–015); nil for syntactic findings.
	Witness *Witness `json:"witness,omitempty"`
}

// String renders the conventional single-line form
// "line:col: severity: message [CODE]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Span, d.Severity, d.Message, d.Code)
}

// An Analyzer is one named static-analysis unit, in the mould of
// golang.org/x/tools/go/analysis: Name and Doc identify and document it,
// Codes lists the diagnostic codes it may emit, and Run inspects the Pass
// and reports findings through it.
type Analyzer struct {
	Name  string
	Doc   string
	Codes []string
	Run   func(*Pass)
}

// Pass carries one lint run over one file: the parsed declarations, the
// issues lenient parsing collected, and the shared memoisation cache the
// expensive analyzers (dead-service, unmatched-request) draw compliance
// verdicts from.
type Pass struct {
	File   *parser.File
	Issues []parser.Issue
	Cache  *memo.Cache
	// Budget meters the semantic analyzers' explorations (nil =
	// unbounded). An exhausted budget stops the remaining analyzers and
	// is reported as one SUSC016 diagnostic.
	Budget *budget.Budget
	// AuditDeclaredOnly restricts the flow audit to each client's
	// declared plan instead of the whole valid-plan family (see
	// Options.AuditDeclaredOnly).
	AuditDeclaredOnly bool

	diags  []Diagnostic
	bodies []reqBody
	audit  *auditState
}

// Report adds a finding.
func (p *Pass) Report(d Diagnostic) { p.diags = append(p.diags, d) }

// Reportf adds a finding built from a format string.
func (p *Pass) Reportf(code string, sev Severity, span parser.Span, format string, args ...interface{}) {
	p.Report(Diagnostic{Code: code, Severity: sev, Span: span, Message: fmt.Sprintf(format, args...)})
}

// reportSweepPanic reports err, when it is the isolated worker panic a
// plan sweep of client i returns beside its surviving assessments (a
// *budget.InternalError naming the poisoned plan), as one SUSC016
// finding, and says whether it was.
func (p *Pass) reportSweepPanic(i int, err error) bool {
	var ie *budget.InternalError
	if !errors.As(err, &ie) {
		return false
	}
	p.Reportf(CodeInternalError, Error, p.clientSpan(i),
		"plan sweep of client %s failed: %s", p.File.Clients[i].Name, ie)
	return true
}

// AnalyzerStat is the per-analyzer cost and yield of one run.
type AnalyzerStat struct {
	Name     string
	Findings int
	Duration time.Duration
}

// Stats collects per-analyzer statistics when Options.Stats is set.
type Stats struct {
	Analyzers []AnalyzerStat
}

// Options tunes a lint run.
type Options struct {
	// MinSeverity drops findings below this grade (default Info: keep all).
	MinSeverity Severity
	// Analyzers overrides the default suite (nil = all).
	Analyzers []*Analyzer
	// Cache supplies a shared memoisation cache; nil builds a fresh one.
	Cache *memo.Cache
	// Stats, when non-nil, receives per-analyzer wall time and counts.
	Stats *Stats
	// Budget meters the run (nil = unbounded); see Pass.Budget.
	Budget *budget.Budget
	// AuditDeclaredOnly restricts the flow audit (AuditAnalyzers) to each
	// client's declared plan instead of the whole valid-plan family —
	// `susc checkall` uses it to audit exactly the network as deployed.
	AuditDeclaredOnly bool
}

// Analyzers returns the default suite, in running order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		wellformedAnalyzer,
		duplicateAnalyzer,
		framingAnalyzer,
		vacuityAnalyzer,
		contradictionAnalyzer,
		deadServiceAnalyzer,
		unmatchedAnalyzer,
		unusedInstanceAnalyzer,
		unusedPolicyAnalyzer,
		referenceAnalyzer,
	}
}

// SemanticAnalyzers returns the model-checking suite (SUSC011–015), in
// running order. These analyzers explore whole state spaces and attach
// Witness counterexamples; they are not part of the default suite, so
// quick lint runs stay cheap and existing outputs stable. `susc explain`
// runs AllAnalyzers.
func SemanticAnalyzers() []*Analyzer {
	return []*Analyzer{
		violableAnalyzer,
		deadlockableAnalyzer,
		unrealizableAnalyzer,
		subsumedAnalyzer,
		deadAutomatonAnalyzer,
	}
}

// AllAnalyzers returns the default suite followed by the semantic suite.
func AllAnalyzers() []*Analyzer {
	return append(Analyzers(), SemanticAnalyzers()...)
}

// Run lints an already-parsed file. The issues argument carries what
// lenient parsing collected (nil for a strictly parsed file). Diagnostics
// come back deduplicated and ordered by position, code, message.
func Run(f *parser.File, issues []parser.Issue, opts Options) []Diagnostic {
	pass := newPass(f, issues, opts)
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Analyzers()
	}
	return runSuite(pass, analyzers, opts)
}

func newPass(f *parser.File, issues []parser.Issue, opts Options) *Pass {
	pass := &Pass{File: f, Issues: issues, Cache: opts.Cache, Budget: opts.Budget,
		AuditDeclaredOnly: opts.AuditDeclaredOnly}
	if pass.Cache == nil {
		pass.Cache = memo.New()
	}
	return pass
}

// runSuite drives a suite of analyzers over one pass: budget cutoffs and
// panics become SUSC016 diagnostics, and the result is deduplicated,
// ordered and severity-filtered.
func runSuite(pass *Pass, analyzers []*Analyzer, opts Options) []Diagnostic {
	stopped := false
	for _, a := range analyzers {
		// An exhausted budget stops the suite: a truncated analyzer's
		// silence must not read as a clean bill, so the cutoff is itself
		// a finding.
		if e := pass.Budget.Exhausted(); e != nil {
			pass.Reportf(CodeInternalError, Error, parser.Span{},
				"analysis stopped before %s: %s", a.Name, e)
			stopped = true
			break
		}
		before := len(pass.diags)
		start := time.Now()
		// Each analyzer runs inside a panic guard: a panicking analyzer
		// (injected or genuine) is isolated into one SUSC016 diagnostic
		// naming it, and the rest of the suite still runs.
		err := budget.Guard(a.Name, func() error {
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.LintAnalyzer, a.Name)
			}
			a.Run(pass)
			return nil
		})
		if err != nil {
			pass.diags = pass.diags[:before] // drop the panicked analyzer's partial findings
			pass.Reportf(CodeInternalError, Error, parser.Span{},
				"analyzer %s failed: %s", a.Name, err)
		}
		if opts.Stats != nil {
			opts.Stats.Analyzers = append(opts.Stats.Analyzers, AnalyzerStat{
				Name:     a.Name,
				Findings: len(pass.diags) - before,
				Duration: time.Since(start),
			})
		}
	}
	if !stopped {
		// Exhaustion during the last analyzer still truncated it.
		if e := pass.Budget.Exhausted(); e != nil {
			pass.Reportf(CodeInternalError, Error, parser.Span{},
				"analysis stopped: %s", e)
		}
	}
	return finish(pass.diags, opts.MinSeverity)
}

// Source lints a source file from its text. Syntax errors do not fail the
// run: they come back as a single SUSC000 diagnostic anchored at the
// error position, so `susc lint` always yields positioned findings.
func Source(src string, opts Options) []Diagnostic {
	f, issues, err := parser.ParseFileLenient(src)
	if err != nil {
		return sourceErrorDiags(err, opts)
	}
	return Run(f, issues, opts)
}

// sourceErrorDiags turns a hard parse error into the single positioned
// SUSC000 diagnostic Source and AuditSource report.
func sourceErrorDiags(err error, opts Options) []Diagnostic {
	d := Diagnostic{Code: CodeIllFormed, Severity: Error, Message: err.Error()}
	var pe *parser.Error
	if errors.As(err, &pe) {
		pos := parser.Pos{Line: pe.Line, Col: pe.Col}
		d.Span = parser.Span{Start: pos, End: pos}
		d.Message = pe.Msg
	}
	return finish([]Diagnostic{d}, opts.MinSeverity)
}

// finish deduplicates, orders and filters a diagnostic list.
func finish(diags []Diagnostic, min Severity) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if d.Severity >= min {
			kept = append(kept, d)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Span != kept[j].Span {
			return kept[i].Span.Before(kept[j].Span)
		}
		if kept[i].Code != kept[j].Code {
			return kept[i].Code < kept[j].Code
		}
		return kept[i].Message < kept[j].Message
	})
	out := kept[:0]
	for i, d := range kept {
		if i > 0 && d.Code == kept[i-1].Code && d.Span == kept[i-1].Span && d.Message == kept[i-1].Message {
			continue
		}
		out = append(out, d)
	}
	return out
}
