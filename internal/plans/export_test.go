package plans

import (
	"fmt"
	"sort"

	"susc/internal/faultinject"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/verify"
)

// AssessAllLegacy is the tests' oracle for the fused engine: the
// one-exploration-per-plan strategy. It enumerates every complete plan,
// then verifies each independently with verify.CheckPlanOpts (which
// carries its own persistent tier when the cache has a store attached),
// on opts.Workers goroutines. Its output — assessments, order, errors —
// is what AssessAll must reproduce.
func AssessAllLegacy(repo network.Repository, table *policy.Table,
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
		NoReportTier: opts.NoReportTier}
	out := make([]Assessment, len(complete))
	all := make([]int, len(complete))
	for i := range all {
		all[i] = i
	}
	firstInternal, err := assessEach(opts.Workers, complete, all, out,
		func(i int, key string) (*verify.Report, error) {
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.PlansWorker, key)
			}
			return verify.CheckPlanOpts(repo, table, loc, client, complete[i], vopts)
		})
	if err != nil {
		return nil, err
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

// SweepKeys returns the plans AssessAll's sweep enumerates and the cone
// keys it reads and files their verdicts under.
func SweepKeys(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]network.Plan, []hash.Sum, error) {

	eng := newFusedEngine(repo, table, loc, client, opts)
	plans, vecs, err := eng.enumerate()
	if err != nil {
		return nil, nil, err
	}
	return plans, eng.planSums(vecs), nil
}

// enumerate is the oracle's enumerator: every complete binding of the
// requests reachable under the binding itself (selecting a service adds
// its requests), in the order the fused engine's enumerator mirrors. The
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
