package plans_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"susc/internal/budget"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/plans"
	"susc/internal/verify"
)

// TestSoakCancellationSound is the randomized degradation soak: random
// worlds are assessed once unbounded (the oracle) and then repeatedly
// under random budgets and random cancellation points. The invariant is
// soundness of partial results — an interrupted run may drop plans or
// degrade verdicts to Unknown, but every definite verdict it does report
// must be exactly the oracle's verdict for that plan. In particular an
// interrupted run never reports Valid for a plan the oracle says is bad.
func TestSoakCancellationSound(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		g := &worldGen{r: rand.New(rand.NewSource(int64(1000 + seed)))}
		opens := 2
		nLocs := 2 + g.r.Intn(3)
		repo := network.Repository{}
		for i := 0; i < nLocs; i++ {
			repo[hexpr.Location(fmt.Sprintf("s%d", i))] = g.decorate(g.protocol(3), &opens, 3)
		}
		clientOpens := 1
		client := hexpr.Cat(
			hexpr.Open(g.req(), g.policyID(), g.protocol(3)),
			g.decorate(hexpr.Eps(), &clientOpens, 2),
		)

		oracle := map[string]verify.Verdict{}
		full, err := plans.AssessAll(repo, paperex.Policies(), "cl", client, plans.Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle failed: %v", seed, err)
		}
		for _, a := range full {
			oracle[a.Plan.Key()] = a.Report.Verdict
		}

		for trial := 0; trial < 6; trial++ {
			lim := budget.Limits{MaxStates: 1 + int64(g.r.Intn(200))}
			ctx := context.Background()
			if g.r.Intn(4) == 0 {
				// An already-delivered SIGINT: the run starts cancelled.
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx = c
				lim = budget.Limits{}
			}
			b := budget.New(ctx, lim)
			for _, assess := range []assessFunc{plans.AssessAllLegacy, plans.AssessAll} {
				// No code reads Workers; drawing it for both runs keeps
				// every seed's trial sequence.
				as, err := assess(repo, paperex.Policies(), "cl", client, plans.Options{
					Workers: 1 + g.r.Intn(4), Budget: b,
				})
				if err != nil {
					t.Fatalf("seed %d trial %d: budgeted run errored: %v", seed, trial, err)
				}
				for _, a := range as {
					want, ok := oracle[a.Plan.Key()]
					if !ok {
						t.Fatalf("seed %d trial %d: plan %s not in the oracle set", seed, trial, a.Plan)
					}
					if a.Report.Verdict == verify.Unknown {
						continue // degraded, not wrong
					}
					if a.Report.Verdict != want {
						t.Fatalf("seed %d trial %d: plan %s assessed %s under budget, oracle says %s",
							seed, trial, a.Plan, a.Report.Verdict, want)
					}
				}
			}
		}
	}
}
