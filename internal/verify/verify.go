// Package verify statically validates plans: it explores exhaustively the
// (finite) state space of a client running against the repository under a
// given plan, and reports whether any reachable computation violates a
// security policy or deadlocks on a missing communication. A plan passing
// this check is *valid* in the sense of §2/§5 of the paper: the network
// needs no run-time monitor.
//
// Finiteness. A configuration is abstracted to (session-tree key, monitor
// signature): expression residuals range over the finite LTS state spaces
// (guarded tail recursion), session nesting is bounded by the static
// structure, and the monitor signature ranges over policy-automaton state
// sets and bounded activation counts — so the exploration always
// terminates.
//
// Parallel components of a network never interact (they only interleave,
// each with its own history), so validating a vector of clients reduces to
// validating each client separately; CheckClients does exactly that.
// Bounded availability makes them compete for replicas, and CheckNetwork
// explores their product instead. ExploreFlow reads the security audit's
// active-policy facts off the same exploration: one kernel (explore.go)
// serves all three.
package verify

import (
	"fmt"
	"strings"

	"susc/internal/budget"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/store"
)

// Verdict classifies a plan.
type Verdict int

const (
	// Valid: every request compliant, no reachable security violation, no
	// reachable deadlock.
	Valid Verdict = iota
	// SecurityViolation: some computation would violate an active policy.
	SecurityViolation
	// NotCompliant: some request is bound to a service that is not
	// compliant with the request body — the service could commit to an
	// output the caller cannot receive. The synchronisation-based network
	// semantics is angelic and never exhibits this as a stuck run (§3), so
	// it is detected statically with the product automaton of Definition 5.
	NotCompliant
	// CommunicationDeadlock: some computation reaches a configuration that
	// is not terminated yet has no enabled move (unbound request, dangling
	// location, or a genuinely stuck interleaving).
	CommunicationDeadlock
	// UnboundedNesting: the planned service call graph is cyclic, so the
	// composed behaviour opens sessions to unbounded depth and exhaustive
	// verification is refused. The paper's framework likewise assumes
	// finitely nested compositions.
	UnboundedNesting
	// Unknown: the exploration stopped before exhausting the state space —
	// a state/edge budget ran out, a deadline passed, or the run was
	// cancelled. Unknown is sound by construction: Valid is only ever
	// claimed for fully explored spaces, and any counterexample verdict
	// reached before the cutoff is a real counterexample. Report.Reason
	// says why the exploration stopped, Report.Frontier how many
	// discovered states were still unexplored.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Valid:
		return "valid"
	case SecurityViolation:
		return "security-violation"
	case NotCompliant:
		return "not-compliant"
	case CommunicationDeadlock:
		return "communication-deadlock"
	case UnboundedNesting:
		return "unbounded-nesting"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Report is the result of validating one client under one plan.
type Report struct {
	Verdict Verdict
	// Policy is the violated policy (security verdicts only).
	Policy hexpr.PolicyID
	// Request and Witness describe the failing request (non-compliance
	// verdicts only).
	Request hexpr.RequestID
	Witness string
	// Trace drives the configuration to the offending state.
	Trace []network.TraceEntry
	// TraceLabels is the trace as rendered label strings. Freshly computed
	// reports leave it nil (labels derive from Trace on demand); reports
	// decoded from the persistent store carry only labels — every rendering
	// path goes through labels, so the two are indistinguishable in output.
	TraceLabels []string
	// StuckTree is the session tree of the deadlocked configuration
	// (deadlock verdicts only).
	StuckTree string
	// States is the number of distinct abstract states explored.
	States int
	// Reason explains why the exploration stopped early (Unknown
	// verdicts only): budget exhausted, deadline exceeded, cancelled, or
	// an internal error in the worker that owned this unit.
	Reason string
	// Frontier is the number of states discovered but not yet explored
	// at the cutoff (Unknown verdicts only).
	Frontier int
}

func (r *Report) String() string {
	switch r.Verdict {
	case Valid:
		return fmt.Sprintf("valid (%d states)", r.States)
	case SecurityViolation:
		return fmt.Sprintf("security violation of %s after %s (%d states)",
			r.Policy, strings.Join(r.traceLabels(), "·"), r.States)
	case NotCompliant:
		return fmt.Sprintf("request %s not compliant: %s", r.Request, r.Witness)
	case UnboundedNesting:
		return fmt.Sprintf("unbounded session nesting: %s", r.Witness)
	case Unknown:
		return fmt.Sprintf("unknown: %s (%d states explored, %d frontier)",
			r.Reason, r.States, r.Frontier)
	default:
		return fmt.Sprintf("deadlock at %s after %s (%d states)",
			r.StuckTree, strings.Join(r.traceLabels(), "·"), r.States)
	}
}

// traceLabels returns the rendered trace: the stored labels when present
// (store-decoded reports), otherwise derived from the live entries.
func (r *Report) traceLabels() []string {
	if r.TraceLabels != nil || len(r.Trace) == 0 {
		return r.TraceLabels
	}
	parts := make([]string, len(r.Trace))
	for i, e := range r.Trace {
		parts[i] = e.Label.String()
	}
	return parts
}

// MaxStates bounds the exploration.
const MaxStates = 1 << 20

// Options tunes plan validation.
type Options struct {
	// Capacities bounds the availability of the listed service locations
	// (the §5 extension): opening a session consumes a replica, closing
	// releases it. Locations absent from the map replicate unboundedly.
	// Exhausted capacity shows up as a communication deadlock when some
	// computation can strand an open on an unavailable service.
	Capacities map[hexpr.Location]int
	// Cache memoises compliance verdicts, product automata and one-step
	// transition sets across CheckPlan calls; plan synthesis shares one
	// cache over every candidate plan. Nil builds a private per-call cache
	// (stepping is still amortised across the states of the exploration).
	Cache *memo.Cache
	// Budget meters the exploration (nil = unbounded): every popped state
	// and built edge is charged, and exhaustion or cancellation stops the
	// search with a sound Unknown report instead of an error — verdicts
	// decided before the cutoff stand.
	Budget *budget.Budget
}

// unknownReport closes an exploration cut off by the budget: the verdict
// is Unknown (never Valid — the space was not exhausted), the reason the
// budget's, the frontier the number of discovered-but-unexplored states.
func unknownReport(report *Report, e *budget.ExhaustedError, frontier int) *Report {
	report.Verdict = Unknown
	report.Reason = e.Error()
	report.Frontier = frontier
	return report
}

// CheckPlan validates the plan for one client against the repository,
// following the §5 recipe: (a) every request occurring in the composed
// service — in the client or transitively in the services the plan selects
// — must be bound to a compliant service (product automaton, Theorem 1);
// (b) the exhaustive exploration of the network under the plan must reach
// no security violation and no stuck configuration. It returns a Valid
// report when both hold, and a counterexample report otherwise.
func CheckPlan(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan) (*Report, error) {
	return CheckPlanOpts(repo, table, loc, client, plan, Options{})
}

// staticCheck runs the exploration-free prechecks of plan validation: it
// refuses cyclic compositions (their session nesting is unbounded and the
// state space infinite) and checks every bound request of the composed
// service for compliance. It returns a counterexample report when a check
// fails and nil when the plan passes — ready for the exhaustive
// exploration. CheckPlanOpts, ExploreFlow and CheckNetwork run it; the
// fused synthesis engine (internal/plans) mirrors it over its own request
// tables, and the engines' equivalence tests pin the two to the same
// verdicts and witnesses.
func staticCheck(repo network.Repository, client hexpr.Expr,
	plan network.Plan, cache *memo.Cache) (*Report, error) {

	if cyc := CallCycle(repo, client, plan); cyc != nil {
		return &Report{
			Verdict: UnboundedNesting,
			Witness: fmt.Sprintf("cyclic service calls: %s", LocPath(cyc)),
		}, nil
	}

	// Per-request compliance over the composed service; verdicts (and
	// their witnesses) are memoised per distinct (body, service) pair, so
	// assessing many plans over the same repository decides each pair once.
	for _, pr := range PlannedRequests(repo, client, plan) {
		if !pr.Bound {
			continue // the exploration reports the deadlock with a trace
		}
		ok, witness, err := cache.Compliance(pr.Body, pr.Service)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &Report{
				Verdict: NotCompliant,
				Request: pr.Req,
				Witness: fmt.Sprintf("service at %s: %s", pr.Loc, witness),
			}, nil
		}
	}
	return nil, nil
}

// CheckPlanOpts is CheckPlan with extension options: the exploration is
// the kernel's one-component call, behind the report tiers (cachedReport)
// keyed by PlanKey.
func CheckPlanOpts(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan, opts Options) (*Report, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	key := func() hash.Sum { return PlanKey(repo, table, loc, client, plan, opts.Capacities) }
	return cachedReport(cache, opts, store.KindPlanReport, key, func() (*Report, error) {
		// (a) the static prechecks: cyclic composition, per-request compliance.
		if r, err := staticCheck(repo, client, plan, cache); err != nil || r != nil {
			return r, err
		}
		// (b) exhaustive exploration for security and structural deadlocks.
		x := &explorer{repo: repo, comps: []ClientSpec{{Loc: loc, Client: client, Plan: plan}},
			cache: cache, budget: opts.Budget}
		r, err := x.run(table, opts.Capacities)
		if err == errStateLimit {
			err = fmt.Errorf("verify: exploration exceeds %d states", MaxStates)
		}
		return r, err
	})
}

// ValidPlan reports whether the plan is valid for the client.
func ValidPlan(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan) (bool, error) {
	r, err := CheckPlan(repo, table, loc, client, plan)
	if err != nil {
		return false, err
	}
	return r.Verdict == Valid, nil
}

// ClientSpec pairs a client with its plan for vector validation.
type ClientSpec struct {
	Loc    hexpr.Location
	Client hexpr.Expr
	Plan   network.Plan
}

// CheckClients validates a vector of clients (one plan each). Components
// of a network never interact, so the vector is valid iff every component
// is; the reports are returned in order. One shared cache memoises
// compliance and stepping across all the clients.
func CheckClients(repo network.Repository, table *policy.Table, clients []ClientSpec) ([]*Report, bool, error) {
	opts := Options{Cache: memo.New()}
	reports := make([]*Report, len(clients))
	all := true
	for i, c := range clients {
		r, err := CheckPlanOpts(repo, table, c.Loc, c.Client, c.Plan, opts)
		if err != nil {
			return nil, false, err
		}
		reports[i] = r
		if r.Verdict != Valid {
			all = false
		}
	}
	return reports, all, nil
}
