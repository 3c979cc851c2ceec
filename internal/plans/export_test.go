package plans

import (
	"errors"
	"fmt"
	"sort"

	"susc/internal/budget"
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
// one after another on the calling goroutine. Each plan runs under its
// own panic guard: a panic becomes a *budget.InternalError carrying the
// plan key, that plan's verdict degrades to Unknown, and the other plans
// are still assessed; the first such error is returned after all plans,
// and any other error fails the call. Its output — assessments, order,
// errors — is what AssessAll must reproduce.
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
	vopts := verify.Options{Cache: cache, Budget: opts.Budget}
	// Plan.Key() rebuilds its string per call: key each plan once, for
	// its guard and for the sort.
	keys := make([]string, len(complete))
	order := make([]int, len(complete))
	reports := make([]*verify.Report, len(complete))
	var firstInternal *budget.InternalError
	for i, plan := range complete {
		keys[i], order[i] = plan.Key(), i
		err := budget.Guard("plan "+keys[i], func() error {
			if faultinject.Enabled() {
				faultinject.Fire(faultinject.PlansWorker, keys[i])
			}
			var err error
			reports[i], err = verify.CheckPlanOpts(repo, table, loc, client, plan, vopts)
			return err
		})
		var ie *budget.InternalError
		switch {
		case errors.As(err, &ie):
			reports[i] = &verify.Report{Verdict: verify.Unknown, Reason: ie.Error()}
			if firstInternal == nil {
				firstInternal = ie
			}
		case err != nil:
			return nil, err
		}
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	out := make([]Assessment, len(complete))
	for k, i := range order {
		out[k] = Assessment{Plan: PlanOf(complete[i]), Report: reports[i]}
	}
	if firstInternal != nil {
		return out, firstInternal
	}
	return out, nil
}

// ErrRequestClash tags the engine's refusal of a world that opens one
// request identifier with two framing policies or bodies.
var ErrRequestClash = errRequestClash

// SweepKeys returns the plans AssessAll's sweep enumerates and the cone
// keys it reads and files their verdicts under, in the sweep's key order.
func SweepKeys(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) ([]network.Plan, []hash.Sum, error) {

	eng, err := newFusedEngine(repo, table, loc, client, opts)
	if err != nil {
		return nil, nil, err
	}
	vecs, err := eng.enumerate()
	if err != nil {
		return nil, nil, err
	}
	order := eng.keyOrder(vecs)
	sums := eng.planSums(vecs, order)
	ps := make([]network.Plan, len(order))
	ordered := make([]hash.Sum, len(order))
	for k, i := range order {
		ps[k], ordered[k] = eng.planOf(vecs[i]).Map(), sums[i]
	}
	return ps, ordered, nil
}

// enumerate is the oracle's enumerator: every complete binding of the
// requests reachable under the binding itself (selecting a service adds
// its requests), in the order the fused engine's enumerator mirrors,
// failing at the (MaxPlans+1)-th plan.
func enumerate(repo network.Repository, client hexpr.Expr, opts Options, cache *memo.Cache) ([]network.Plan, error) {
	var out []network.Plan
	err := walkPlans(repo, client, opts.PruneNonCompliant, cache, func(plan network.Plan) error {
		if opts.MaxPlans > 0 && len(out) >= opts.MaxPlans {
			return fmt.Errorf("plans: more than %d complete plans", opts.MaxPlans)
		}
		if opts.Budget.Exhausted() != nil {
			return errStopEnumeration
		}
		out = append(out, plan.Clone())
		return nil
	})
	if err != nil && err != errStopEnumeration {
		return nil, err
	}
	return out, nil
}

// CountPlansLegacy counts the plans the oracle's enumerator reaches for
// the client, under opts.PruneNonCompliant, and stops at stop.
func CountPlansLegacy(repo network.Repository, client hexpr.Expr, opts Options, stop int) (int, error) {
	n := 0
	err := walkPlans(repo, client, opts.PruneNonCompliant, memo.New(), func(network.Plan) error {
		if n++; n == stop {
			return errStopEnumeration
		}
		return nil
	})
	if err != nil && err != errStopEnumeration {
		return 0, err
	}
	return n, nil
}

// walkPlans hands leaf every complete binding of the requests reachable
// under the binding itself, depth-first over the pending requests with
// the candidates in sorted-location order, until leaf fails. The prune
// probe decides compliance through the shared cache: backtracking
// re-asks the same (body, service) pair on every branch, and the
// memoised verdict turns the repeats into lookups.
func walkPlans(repo network.Repository, client hexpr.Expr, prune bool, cache *memo.Cache,
	leaf func(network.Plan) error) error {

	locations := repo.Locations()
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
			return leaf(plan)
		}
		head, rest := pending[0], pending[1:]
		for _, l := range locations {
			service := repo[l]
			if prune {
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
	return expand(network.Plan{}, requestsOf(client))
}

type pendingReq struct {
	req    hexpr.RequestID
	policy hexpr.PolicyID
	body   hexpr.Expr
}

func requestsOf(e hexpr.Expr) []pendingReq {
	var out []pendingReq
	hexpr.Walk(e, func(x hexpr.Expr) {
		if s, ok := x.(hexpr.Session); ok {
			out = append(out, pendingReq{req: s.Req, policy: s.Policy, body: s.Body})
		}
	})
	return out
}
