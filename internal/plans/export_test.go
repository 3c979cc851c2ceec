package plans

import (
	"sort"

	"susc/internal/faultinject"
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
		SkipDiskProbe: opts.MemoryTierOnly}
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
