package plans

import (
	"errors"
	"slices"
	"sort"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hash"
	"susc/internal/network"
	"susc/internal/store"
	"susc/internal/verify"
)

// recomputeFraction is the miss-fraction threshold of the tiered sweep:
// at or below it, misses are recomputed one exploration per plan (the
// cost is proportional to what actually changed); above it, the
// shared-graph engine replays them — paying once for the graph beats
// paying per plan when most of the plan space is cold.
const recomputeFraction = 4 // recompute per-plan while misses ≤ 1/4 of plans

// assessAll enumerates the plans once and assesses them in deterministic
// order (lexicographic in the plan keys). With tiered set, each plan's
// verdict is read through the cache's report tiers under its cone key
// (verify.LookupReport): on an unchanged repository every plan hits and
// the sweep costs its enumeration, its keys and its lookups; after an
// edit, the only misses are the plans whose cone contains the edited
// declaration. Misses are assessed and filed in both tiers. An isolated
// plan panic comes back as a *budget.InternalError alongside the
// assessments: the poisoned plan is Unknown, the rest are intact.
func (eng *fusedEngine) assessAll(tiered bool) ([]Assessment, error) {
	plans, vecs, err := eng.enumerate()
	if err != nil {
		return nil, err
	}
	out := make([]Assessment, len(plans))
	misses := make([]int, 0, len(plans))
	var sums []hash.Sum
	if tiered {
		sums = eng.planSums(vecs)
		for i, sum := range sums {
			if r, ok := verify.LookupReport(eng.cache, store.KindPlanReport, sum); ok {
				out[i] = Assessment{Plan: plans[i], Report: r}
				continue
			}
			misses = append(misses, i)
		}
	} else {
		for i := range plans {
			misses = append(misses, i)
		}
	}

	var firstInternal *budget.InternalError
	switch {
	case len(misses) == 0:
		// Every verdict was filed: nothing to assess.
	case tiered && len(misses)*recomputeFraction <= len(plans):
		firstInternal, err = eng.recomputeEach(plans, sums, misses, out)
	default:
		err = eng.run(plans, vecs, misses, func(i int, a Assessment) error {
			out[i] = a
			if tiered {
				return verify.FileReport(eng.cache, store.KindPlanReport, sums[i], a.Report)
			}
			return nil
		})
		if errors.As(err, &firstInternal) {
			err = nil
		}
	}
	if err != nil {
		return nil, err
	}
	sort.Sort(&byKey{keys: eng.planKeys(vecs), out: out})
	if firstInternal != nil {
		return out, firstInternal
	}
	return out, nil
}

// recomputeEach validates the missed plans one kernel exploration each —
// panic-guarded, on assessEach's pool of opts.Workers goroutines — and
// files them through verify.FillReport, under the store's singleflight
// when one is attached.
func (eng *fusedEngine) recomputeEach(plans []network.Plan, sums []hash.Sum,
	misses []int, out []Assessment) (*budget.InternalError, error) {

	vopts := verify.Options{Cache: eng.cache, Budget: eng.opts.Budget, NoReportTier: true}
	return assessEach(eng.opts.Workers, plans, misses, out,
		func(i int, key string) (*verify.Report, error) {
			return verify.FillReport(eng.cache, store.KindPlanReport, sums[i], func() (*verify.Report, error) {
				if faultinject.Enabled() {
					faultinject.Fire(faultinject.PlansWorker, key)
				}
				return verify.CheckPlanOpts(eng.repo, eng.table, eng.loc, eng.client, plans[i], vopts)
			})
		})
}

// planSums keys every enumerated plan as verify.PlanKey does (with no
// capacities). A plan's planned requests are the sessions the depth-first
// walk of verify.PlannedRequests reaches — the session of a repeated
// request ID is its first one on that walk — so the sweep walks the
// engine's session lists the same way; an enumerated plan binds every
// session the walk reaches to a repository location. Each (session,
// location) cell renders its binding's part once; a plan's key replays
// the parts of its cells in sorted request order (dense request indices
// are in sorted order).
func (eng *fusedEngine) planSums(vecs [][]int32) []hash.Sum {
	k := verify.NewPlanKeyer(eng.table, eng.loc, eng.client)
	nLoc := len(eng.locations)
	cells := make([]*verify.Binding, eng.nSessions*nLoc)
	at := make([]*verify.Binding, eng.nReq)
	mark := make([]uint32, eng.nReq)
	var epoch uint32
	var touched []int32
	var vec []int32
	var walk func(list []pendEntry)
	walk = func(list []pendEntry) {
		for _, s := range list {
			if mark[s.reqIdx] == epoch {
				continue
			}
			mark[s.reqIdx] = epoch
			touched = append(touched, s.reqIdx)
			li := vec[s.reqIdx]
			c := &cells[int(s.session)*nLoc+int(li)]
			if *c == nil {
				*c = k.Binding(verify.PlannedRequest{Req: s.req, Policy: s.policy, Body: s.body,
					Loc: eng.locations[li], Service: eng.services[li], Bound: true})
			}
			at[s.reqIdx] = *c
			walk(eng.locPendIdx[li])
		}
	}
	sums := make([]hash.Sum, len(vecs))
	var bs []*verify.Binding
	for i, v := range vecs {
		epoch++
		vec, touched = v, touched[:0]
		walk(eng.clientPendIdx)
		slices.Sort(touched)
		bs = bs[:0]
		for _, ri := range touched {
			bs = append(bs, at[ri])
		}
		sums[i] = k.Sum(bs)
	}
	return sums
}
