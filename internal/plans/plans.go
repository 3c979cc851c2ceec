// Package plans extracts viable orchestrations: it enumerates the plans of
// a client against a repository — lazily discovering the nested requests
// that selecting a service introduces — and filters them through the
// static checks of internal/verify, keeping exactly the *valid* plans of
// §2/§5: those driving computations that neither violate security nor get
// stuck on a missing communication. Adopting a synthesized plan lets the
// network run with no run-time monitor.
package plans

import (
	"errors"
	"fmt"

	"susc/internal/budget"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/verify"
)

// Options tunes synthesis.
type Options struct {
	// PruneNonCompliant rejects a binding as soon as the product automaton
	// of the request body and the candidate service is non-empty, instead
	// of completing the plan and validating it whole. Sound (compliance is
	// per-request) and usually much faster; the ablation benchmark
	// measures the difference.
	PruneNonCompliant bool
	// MaxPlans bounds the number of complete plans a sweep enumerates
	// (0 = no bound): a family of more plans fails the sweep with
	// "plans: more than MaxPlans complete plans". The family is counted
	// first, from the per-request candidate counts, and refused before
	// any plan is enumerated when the count proves it past the bound;
	// where the count cannot decide (a request reachable twice along one
	// binding path, a compliance error, an exhausted budget) or finds the
	// family within the bound, the enumeration decides, failing at the
	// (MaxPlans+1)-th plan.
	MaxPlans int
	// Workers is read by no code: every sweep and stream runs on the
	// calling goroutine. It stays only because the benchmark harness
	// (bench/) still sets it, and goes with the next change to the
	// benchmark.
	Workers int
	// Cache memoises compliance verdicts, product automata and one-step
	// transition sets across the whole synthesis: the enumeration probe
	// (PruneNonCompliant) and every plan's validation share it, so
	// per-pair work is done once instead of once per plan.
	// Nil builds a fresh cache for the call; supply one to share it
	// across calls (e.g. repeated synthesis over the same repository).
	Cache *memo.Cache
	// Stats, when non-nil, receives the fused engine's work counters.
	Stats *FusedStats
	// NoReportTier keeps a sweep's per-plan verdicts and flows out of both
	// report tiers of Cache: they are neither looked up nor filed, in
	// memory or in the store. Analyzer sweeps (the lint plan-space
	// emptiness check) assess whole plan families as an existence probe;
	// filing fanout^depth sweep verdicts would bloat both tiers and muddy
	// the per-plan hit/miss counters the CLI stats and CI gates key on.
	// The compliance tiers underneath still serve it — those are shared
	// with real verification runs.
	NoReportTier bool
	// Budget meters the whole synthesis (nil = unbounded): enumeration,
	// graph expansion and every plan's exploration charge the same
	// budget. Exhaustion or cancellation degrades gracefully — plans
	// whose verdict was decided before the cutoff keep it, the rest are
	// reported Unknown — and AssessAll/AssessStream return nil: query
	// Budget.Exhausted() to learn the run was cut short.
	Budget *budget.Budget
}

// Assessment is a complete plan together with its verdict.
type Assessment struct {
	Plan   network.Plan
	Report *verify.Report
}

func (a Assessment) String() string {
	return fmt.Sprintf("%s: %s", a.Plan, a.Report)
}

// AssessAll enumerates every complete plan for the client and validates
// each, returning the assessments in deterministic order (lexicographic in
// the plan keys): AssessWithFlows's sweep, with every plan's map built.
func AssessAll(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	fam, err := AssessWithFlows(repo, table, loc, client, opts)
	if fam == nil {
		return nil, err
	}
	out := make([]Assessment, fam.Len())
	for i := range out {
		out[i] = Assessment{Plan: fam.Plan(i), Report: fam.Report(i)}
	}
	return out, err
}

// AssessWithFlows is the plan sweep behind AssessAll and the audit: it
// enumerates every complete plan for the client once and validates each.
// Verdicts are read through the report tiers of opts.Cache — its memory,
// then its store — under each plan's cone key (verify.PlanKey), and only
// the misses are validated, against one shared state graph (the fused
// engine), and filed. A nil opts.Cache (a private cache) or
// opts.NoReportTier skips the tiers. The swept family comes back in
// plan-key order with a flow reader over the same tiers (Family.Flow).
// An isolated plan panic comes back as a *budget.InternalError alongside
// the family; any other error fails the sweep, with a nil family.
func AssessWithFlows(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) (*Family, error) {

	eng, err := newFusedEngine(repo, table, loc, client, opts)
	if err != nil {
		return nil, err
	}
	return eng.sweep(opts.Cache != nil && !opts.NoReportTier)
}

// Family is a swept plan family in plan-key order: plan i's verdict, its
// plan and its flow. Plans are held as dense vectors, and a plan's map is
// built only when Plan asks for it. Reports and flows may be shared with
// the report tiers: callers must not mutate them. A Family is not safe for
// concurrent use.
type Family struct {
	eng   *fusedEngine
	vecs  [][]int32 // in enumeration order
	order []int32   // order[i]: the enumeration index of the i-th plan by key
	// reports and sums (the cone keys; nil when the sweep is untiered)
	// are by enumeration index.
	reports []*verify.Report
	sums    []hash.Sum
	flows   *replayer // Flow's replayer, built on first use
}

// Len is the number of plans in the family.
func (f *Family) Len() int { return len(f.order) }

// Report is plan i's verdict.
func (f *Family) Report(i int) *verify.Report { return f.reports[f.order[i]] }

// Plan builds plan i's map.
func (f *Family) Plan(i int) network.Plan { return f.eng.planOf(f.vecs[f.order[i]]) }

// Flow returns plan i's flow, for a plan the sweep assessed Valid: the
// record verify.ExploreFlow makes for it. A tiered sweep reads it through
// the report tiers under the plan's cone key — the key its verdict is
// filed under — with verify.ReadFlow, and hit reports a read from either
// tier. A miss replays the plan over the sweep's graph (expanding what
// the sweep did not build) into a verify.FlowRecorder, with the kernel's
// budget charges: one state per visit, the projected moves as edges and
// one check per leak-analysis step.
func (f *Family) Flow(i int) (flow *verify.PlanFlow, hit bool, err error) {
	e := f.order[i]
	replay := func() (*verify.PlanFlow, error) {
		if f.flows == nil {
			f.flows = f.eng.newReplayer()
			f.flows.flow = &verify.FlowRecorder{}
		}
		r := f.flows
		r.flow.Reset(f.eng.table)
		rep, err := f.eng.replay(f.vecs[e], r)
		if err != nil {
			return nil, err
		}
		return r.flow.Flow(rep, f.eng.opts.Budget), nil
	}
	if f.sums == nil {
		flow, err = replay()
		return flow, false, err
	}
	return verify.ReadFlow(f.eng.cache, f.sums[e], replay)
}

// Synthesize returns exactly the valid plans for the client, in
// deterministic order.
func Synthesize(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]network.Plan, error) {

	assessments, err := AssessAll(repo, table, loc, client, opts)
	if err != nil {
		return nil, err
	}
	var out []network.Plan
	for _, a := range assessments {
		if a.Report.Verdict == verify.Valid {
			out = append(out, a.Plan)
		}
	}
	return out, nil
}

// errStopEnumeration is the internal sentinel unwinding the enumeration
// recursion when the budget runs out: the plans discovered so far are
// returned with a nil error, and assessment degrades them to Unknown.
var errStopEnumeration = errors.New("plans: enumeration stopped by budget")
