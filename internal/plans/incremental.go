package plans

import (
	"errors"
	"slices"

	"susc/internal/budget"
	"susc/internal/hash"
	"susc/internal/store"
	"susc/internal/verify"
)

// sweep enumerates the plans once and assesses them. With tiered set,
// each plan's verdict is read through the cache's report tiers under its
// cone key (verify.LookupReport): on an unchanged repository every plan
// hits and the sweep costs its enumeration, its keys and its lookups;
// after an edit, the only misses are the plans whose cone contains the
// edited declaration. Misses are replayed on the fused engine's shared
// graph and filed in both tiers (verify.FileReport). The plans are sorted
// once, by key, and keyed in that order, so consecutive keys share their
// binding prefixes (verify.PlanKeyer). An isolated plan panic comes back
// as a *budget.InternalError alongside the family: the poisoned plan is
// Unknown, the rest are intact.
func (eng *fusedEngine) sweep(tiered bool) (*Family, error) {
	vecs, err := eng.enumerate()
	if err != nil {
		return nil, err
	}
	fam := &Family{eng: eng, vecs: vecs, order: eng.keyOrder(vecs),
		reports: make([]*verify.Report, len(vecs))}
	misses := make([]int, 0, len(vecs))
	if tiered {
		fam.sums = eng.planSums(vecs, fam.order)
		for i, sum := range fam.sums {
			if r, ok := verify.LookupReport(eng.cache, store.KindPlanReport, sum); ok {
				fam.reports[i] = r
				continue
			}
			misses = append(misses, i)
		}
	} else {
		for i := range vecs {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return fam, nil // every verdict was filed: nothing to assess
	}
	err = eng.run(vecs, misses, func(i int, r *verify.Report) error {
		fam.reports[i] = r
		if tiered {
			return verify.FileReport(eng.cache, store.KindPlanReport, fam.sums[i], r)
		}
		return nil
	})
	if err != nil && !errors.As(err, new(*budget.InternalError)) {
		return nil, err
	}
	return fam, err
}

// planSums keys every enumerated plan as verify.PlanKey does (with no
// capacities), visiting the plans in order (key order, where consecutive
// plans share the longest binding prefixes the keyer resumes from) and
// filing each key at its enumeration index. A plan's planned requests
// are the sessions the depth-first walk of verify.PlannedRequests
// reaches — the session of a repeated request ID is its first one on
// that walk — so the sweep walks the engine's session lists the same
// way; an enumerated plan binds every session the walk reaches to a
// repository location. Each (session, location) cell renders its
// binding's part once; a plan's key replays the parts of its cells in
// sorted request order (dense request indices are in sorted order).
func (eng *fusedEngine) planSums(vecs [][]int32, order []int32) []hash.Sum {
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
	for _, i := range order {
		epoch++
		vec, touched = vecs[i], touched[:0]
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
