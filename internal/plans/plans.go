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
	"sort"
	"sync"

	"susc/internal/budget"
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
	// MaxPlans bounds the number of complete plans examined (0 = no
	// bound). Synthesis fails with an error when the bound is hit.
	MaxPlans int
	// Workers sizes the goroutine pool that re-checks store misses (0 or
	// 1 = sequential): with a persistent store attached to Cache, AssessAll
	// reads it when an edit invalidated at most a quarter of the plans,
	// which it then recomputes one exploration each. Every other path —
	// AssessStream, AssessWithFlows, AssessAll without a store — runs the
	// fused engine on the calling goroutine and ignores it.
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
	// MemoryTierOnly keeps per-plan verdicts out of the persistent store
	// even when the cache has one attached. Analyzer sweeps (the lint
	// plan-space emptiness check) assess whole plan families as an
	// existence probe; persisting fanout^depth sweep verdicts would bloat
	// the store and muddy the per-plan hit/miss counters the CLI stats and
	// CI gates key on. The compliance and LTS tiers underneath still use
	// the disk — those are shared with real verification runs.
	MemoryTierOnly bool
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
// the plan keys). The plans are validated against one shared state graph
// (the fused engine); with a persistent store attached to opts.Cache, the
// store's plan verdicts are read first and only the misses are recomputed.
func AssessAll(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	if opts.Cache != nil && opts.Cache.Disk() != nil && !opts.MemoryTierOnly {
		return assessAllIncremental(repo, table, loc, client, opts)
	}
	return newFusedEngine(repo, table, loc, client, opts).assessAll()
}

// AssessWithFlows is the audit's plan sweep: AssessAll on the fused
// engine in the memory tier only (opts.MemoryTierOnly is ignored),
// returning with the assessments a flow reader over the graph the sweep
// built. Given a plan the sweep assessed
// Valid, the reader replays it over that graph into a verify.FlowRecorder
// and returns the flow verify.ExploreFlow records for the plan, with the
// same budget charges: one state per visit, the projected moves as edges
// and one check per leak-analysis step. The reader is not safe for
// concurrent use. As with AssessAll, an isolated plan panic comes back
// as a *budget.InternalError alongside the assessments.
func AssessWithFlows(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options,
) ([]Assessment, func(network.Plan) (*verify.PlanFlow, error), error) {

	eng := newFusedEngine(repo, table, loc, client, opts)
	as, err := eng.assessAll()
	if err != nil && !errors.As(err, new(*budget.InternalError)) {
		return nil, nil, err
	}
	r := eng.newReplayer()
	r.flow = &verify.FlowRecorder{}
	read := func(plan network.Plan) (*verify.PlanFlow, error) {
		r.flow.Reset(table)
		rep, err := eng.replay(eng.planVec(plan, r.vec), r)
		if err != nil {
			return nil, err
		}
		return r.flow.Flow(rep, opts.Budget), nil
	}
	return as, read, err
}

// assessAll runs the shared-graph engine and collects the stream into
// deterministically ordered assessments.
func (eng *fusedEngine) assessAll() ([]Assessment, error) {
	var out []Assessment
	var keys []string
	err := eng.stream(func(a Assessment) error {
		out = append(out, a)
		return nil
	}, &keys)
	if err != nil && !errors.As(err, new(*budget.InternalError)) {
		return nil, err
	}
	if len(keys) != len(out) {
		// Defensive only: the stream yields one assessment per enumerated
		// plan on every surviving path, so the precomputed keys align with
		// out. Rebuild from the plan maps if that ever stops holding.
		keys = make([]string, len(out))
		for i := range out {
			keys[i] = out[i].Plan.Key()
		}
	}
	sort.Sort(&byKey{keys: keys, out: out})
	// An internal error (isolated plan panic) is returned alongside the
	// assessments: the poisoned plan is Unknown, the rest are intact.
	return out, err
}

// assessEach validates complete[i] for every i in idxs through check,
// which receives i and the plan key, and stores the assessment in out[i]:
// on `workers` goroutines when there is more than one index, serially
// otherwise. Each plan runs inside a panic guard: a worker panic becomes a
// typed *budget.InternalError carrying the plan key as a repro bundle, the
// plan's verdict degrades to Unknown, and the other workers finish
// undisturbed. The first such error is returned; any other error fails
// the whole call.
func assessEach(workers int, complete []network.Plan, idxs []int, out []Assessment,
	check func(i int, key string) (*verify.Report, error)) (*budget.InternalError, error) {

	one := func(i int) error {
		plan := complete[i]
		key := plan.Key()
		var report *verify.Report
		err := budget.Guard("plan "+key, func() error {
			var err error
			report, err = check(i, key)
			return err
		})
		var ie *budget.InternalError
		switch {
		case err == nil:
			out[i] = Assessment{Plan: plan, Report: report}
		case errors.As(err, &ie):
			out[i] = Assessment{Plan: plan,
				Report: &verify.Report{Verdict: verify.Unknown, Reason: ie.Error()}}
		}
		return err
	}
	var mu sync.Mutex
	var firstInternal *budget.InternalError
	var firstErr error
	record := func(err error) {
		var ie *budget.InternalError
		if errors.As(err, &ie) {
			if firstInternal == nil {
				firstInternal = ie
			}
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if workers > 1 && len(idxs) > 1 {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if err := one(i); err != nil {
						mu.Lock()
						record(err)
						mu.Unlock()
					}
				}
			}()
		}
		for _, i := range idxs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		for _, i := range idxs {
			if err := one(i); err != nil {
				record(err)
				if firstErr != nil {
					break
				}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return firstInternal, nil
}

type byKey struct {
	keys []string
	out  []Assessment
}

func (s *byKey) Len() int           { return len(s.out) }
func (s *byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.out[i], s.out[j] = s.out[j], s.out[i]
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

// enumerate produces every complete binding of the requests reachable
// under the binding itself (selecting a service adds its requests). The
// PruneNonCompliant probe decides compliance through the shared cache:
// backtracking re-asks the same (body, service) pair on every branch, and
// the memoised verdict turns the repeats into lookups.
func enumerate(repo network.Repository, client hexpr.Expr, opts Options, cache *memo.Cache) ([]network.Plan, error) {
	locations := repo.Locations()
	var out []network.Plan
	var expand func(plan network.Plan, pending []pendingReq) error
	expand = func(plan network.Plan, pending []pendingReq) error {
		// drop already-bound requests (cycles in the service graph)
		for len(pending) > 0 {
			if _, ok := plan[pending[0].req]; ok {
				pending = pending[1:]
				continue
			}
			break
		}
		if len(pending) == 0 {
			if opts.MaxPlans > 0 && len(out) >= opts.MaxPlans {
				return fmt.Errorf("plans: more than %d complete plans", opts.MaxPlans)
			}
			if opts.Budget.Exhausted() != nil {
				return errStopEnumeration
			}
			out = append(out, plan.Clone())
			return nil
		}
		head, rest := pending[0], pending[1:]
		for _, l := range locations {
			service := repo[l]
			if opts.PruneNonCompliant {
				ok, err := cache.Compliant(head.body, service)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			plan[head.req] = l
			newPending := append(append([]pendingReq(nil), rest...), requestsOf(service)...)
			if err := expand(plan, newPending); err != nil {
				return err
			}
			delete(plan, head.req)
		}
		return nil
	}
	if err := expand(network.Plan{}, requestsOf(client)); err != nil && err != errStopEnumeration {
		return nil, err
	}
	return out, nil
}

type pendingReq struct {
	req  hexpr.RequestID
	body hexpr.Expr
}

func requestsOf(e hexpr.Expr) []pendingReq {
	var out []pendingReq
	hexpr.Walk(e, func(x hexpr.Expr) {
		if s, ok := x.(hexpr.Session); ok {
			out = append(out, pendingReq{req: s.Req, body: s.Body})
		}
	})
	return out
}
