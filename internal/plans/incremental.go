package plans

import (
	"errors"
	"sort"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/store"
	"susc/internal/verify"
)

// recomputeFraction is the miss-fraction threshold of the incremental
// assessor: at or below it, misses are recomputed one exploration per
// plan (the cost is proportional to what actually changed); above it, the
// shared-graph engine recomputes everything — paying once for the graph
// beats paying per plan when most of the plan space is cold.
const recomputeFraction = 4 // recompute per-plan while misses ≤ 1/4 of plans

// assessAllIncremental is the persistent-tier plan assessor: enumerate
// the candidate plans, probe the store for each plan's cone hash, decode
// the hits, and recompute only the misses. On an unchanged repository
// every probe hits and assessment costs no exploration at all; after an
// edit, the only misses are the plans whose dependency cone contains the
// edited declaration.
func assessAllIncremental(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]Assessment, error) {

	cache := opts.Cache
	disk := cache.Disk()
	complete, err := enumerate(repo, client, opts, cache)
	if err != nil {
		return nil, err
	}

	// Probe the store once per plan. Plan assessment is capacity-free
	// (capacities are a whole-network concern), so the cone key carries no
	// capacity component.
	out := make([]Assessment, len(complete))
	sums := make([]hash.Sum, len(complete))
	var misses []int
	for i, plan := range complete {
		sum, err := verify.PlanKey(repo, table, loc, client, plan, nil)
		if err != nil {
			return nil, err
		}
		sums[i] = sum
		if raw, ok := disk.Get(store.KindPlanReport, sum); ok {
			if r, derr := verify.DecodeReport(raw); derr == nil {
				out[i] = Assessment{Plan: plan, Report: r}
				continue
			}
		}
		misses = append(misses, i)
	}

	var firstInternal *budget.InternalError
	switch {
	case len(misses) == 0:
		// Warm store, unchanged repository: nothing to compute.
	case len(misses)*recomputeFraction <= len(complete):
		// A small edit: recompute exactly the invalidated cones, one
		// exploration per plan, under singleflight so concurrent callers
		// sharing the store compute a cone once.
		firstInternal, err = recomputeMisses(repo, table, loc, client, opts, complete, sums, misses, out)
		if err != nil {
			return nil, err
		}
	default:
		// A cold or mostly-invalidated store: the shared-graph engine
		// amortises the exploration across all plans, and the misses are
		// written back from its output.
		all, aerr := newFusedEngine(repo, table, loc, client, opts).assessAll()
		if aerr != nil && !errors.As(aerr, &firstInternal) {
			return nil, aerr
		}
		byPlanKey := make(map[string]*verify.Report, len(all))
		for _, a := range all {
			byPlanKey[a.Plan.Key()] = a.Report
		}
		for _, i := range misses {
			r := byPlanKey[complete[i].Key()]
			if r == nil {
				continue
			}
			out[i] = Assessment{Plan: complete[i], Report: r}
			if r.Verdict != verify.Unknown {
				enc, eerr := verify.EncodeReport(r)
				if eerr != nil {
					return nil, eerr
				}
				if perr := disk.Put(store.KindPlanReport, sums[i], enc); perr != nil {
					return nil, perr
				}
			}
		}
	}

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

// recomputeMisses validates the missed plans one exploration each —
// panic-guarded, on assessEach's pool of opts.Workers goroutines — and
// writes decided verdicts back to the store. Unknown verdicts (budget
// cutoffs) are never persisted.
func recomputeMisses(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options,
	complete []network.Plan, sums []hash.Sum, misses []int, out []Assessment) (*budget.InternalError, error) {

	cache := opts.Cache
	disk := cache.Disk()
	vopts := verify.Options{Cache: cache, Budget: opts.Budget, SkipDiskProbe: true}
	return assessEach(opts.Workers, complete, misses, out,
		func(i int, key string) (*verify.Report, error) {
			got, err := disk.Once(store.KindPlanReport, sums[i], func() (any, error) {
				// A concurrent assessor may have written the cone while we
				// queued behind the flight.
				if raw, ok := disk.Peek(store.KindPlanReport, sums[i]); ok {
					if r, derr := verify.DecodeReport(raw); derr == nil {
						return r, nil
					}
				}
				if faultinject.Enabled() {
					faultinject.Fire(faultinject.PlansWorker, key)
				}
				r, err := verify.CheckPlanOpts(repo, table, loc, client, complete[i], vopts)
				if err != nil {
					return nil, err
				}
				if r.Verdict != verify.Unknown {
					enc, eerr := verify.EncodeReport(r)
					if eerr != nil {
						return nil, eerr
					}
					if perr := disk.Put(store.KindPlanReport, sums[i], enc); perr != nil {
						return nil, perr
					}
				}
				return r, nil
			})
			if err != nil {
				return nil, err
			}
			return got.(*verify.Report), nil
		})
}
