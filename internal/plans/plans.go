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
	"susc/internal/faultinject"
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
	// Workers validates plans concurrently with this many goroutines
	// (0 or 1 = sequential). All analyses are read-only over the
	// repository and policy table, so parallel validation is safe.
	Workers int
	// Cache memoises compliance verdicts, product automata and one-step
	// transition sets across the whole synthesis: the enumeration probe
	// (PruneNonCompliant) and every worker validating candidate plans
	// share it, so per-pair work is done once instead of once per plan.
	// Nil builds a fresh cache for the call; supply one to share it
	// across calls (e.g. repeated synthesis over the same repository).
	Cache *memo.Cache
	// Engine selects the synthesis strategy: EngineFused (default)
	// validates every plan against one shared state graph, EngineLegacy
	// explores each plan independently. Both produce identical output.
	Engine Engine
	// Stats, when non-nil, receives the fused engine's work counters
	// (EngineFused only).
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
// the plan keys). The work runs on the engine opts.Engine selects; the
// result does not depend on the choice.
func AssessAll(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	if opts.Engine == EngineLegacy {
		// The legacy engine validates plans through CheckPlanOpts, which
		// carries its own persistent tier when the cache has a store
		// attached — no separate incremental dispatch needed.
		return assessAllLegacy(repo, table, loc, client, opts)
	}
	if opts.Cache != nil && opts.Cache.Disk() != nil && !opts.MemoryTierOnly {
		return assessAllIncremental(repo, table, loc, client, opts)
	}
	return assessAllFused(repo, table, loc, client, opts)
}

// assessAllFused runs the default shared-graph engine and collects the
// stream into deterministically ordered assessments.
func assessAllFused(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	var out []Assessment
	var keys []string
	err := assessStream(repo, table, loc, client, opts, func(a Assessment) error {
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
	// An internal error (isolated worker panic) is returned alongside the
	// assessments: the poisoned plan is Unknown, the rest are intact.
	return out, err
}

// assessAllLegacy is the one-exploration-per-plan strategy: enumerate
// every complete plan, then verify each independently.
func assessAllLegacy(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	complete, err := enumerate(repo, client, opts, cache)
	if err != nil {
		return nil, err
	}
	vopts := verify.Options{Cache: cache, Budget: opts.Budget,
		SkipDiskProbe: opts.MemoryTierOnly}
	// checkGuarded validates one plan inside a panic guard: a worker panic
	// becomes a typed *budget.InternalError carrying the plan key as a
	// repro bundle, the plan's verdict degrades to Unknown, and the rest
	// of the fleet finishes undisturbed.
	checkGuarded := func(plan network.Plan) (Assessment, error) {
		key := plan.Key()
		var report *verify.Report
		err := budget.Guard("plan "+key, func() error {
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.PlansWorker, key)
			}
			var err error
			report, err = verify.CheckPlanOpts(repo, table, loc, client, plan, vopts)
			return err
		})
		if err != nil {
			var ie *budget.InternalError
			if errors.As(err, &ie) {
				return Assessment{Plan: plan,
					Report: &verify.Report{Verdict: verify.Unknown, Reason: ie.Error()}}, err
			}
			return Assessment{}, err
		}
		return Assessment{Plan: plan, Report: report}, nil
	}
	out := make([]Assessment, len(complete))
	var firstInternal *budget.InternalError
	if opts.Workers > 1 && len(complete) > 1 {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		jobs := make(chan int)
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					a, err := checkGuarded(complete[i])
					if err != nil {
						var ie *budget.InternalError
						mu.Lock()
						if errors.As(err, &ie) {
							if firstInternal == nil {
								firstInternal = ie
							}
						} else if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						if a.Report == nil {
							continue
						}
					}
					out[i] = a
				}
			}()
		}
		for i := range complete {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	} else {
		for i, plan := range complete {
			a, err := checkGuarded(plan)
			if err != nil {
				var ie *budget.InternalError
				if !errors.As(err, &ie) {
					return nil, err
				}
				if firstInternal == nil {
					firstInternal = ie
				}
			}
			out[i] = a
		}
	}
	// sort on precomputed keys: Plan.Key() rebuilds its string per call,
	// so computing it once per plan beats recomputing per comparison
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].Plan.Key()
	}
	sort.Sort(&byKey{keys: keys, out: out})
	if firstInternal != nil {
		return out, firstInternal
	}
	return out, nil
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
