// Randomized-world soak test: generate whole repositories of random
// services with security events and policies, classify every plan
// statically, and check that the static verdicts and the run-time
// behaviour tell the same story on every sampled world.
package susc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/network"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/verify"
)

// randomWorld builds a repository of n services, each a random event
// prologue followed by a random contract, plus a client with one policy-
// framed request.
func randomWorld(seed int64, n int) (network.Repository, *policy.Table, hexpr.Expr) {
	rnd := rand.New(rand.NewSource(seed))
	// the policy forbids the event "bad" (any single int argument)
	auto := &policy.Automaton{
		Name:   "noBad",
		States: []string{"q0", "qv"},
		Start:  "q0",
		Finals: []string{"qv"},
		Edges: []policy.Edge{
			{From: "q0", To: "qv", EventName: "bad", Guards: []policy.Guard{policy.GAny()}},
		},
	}
	inst := auto.MustInstantiate(policy.Binding{})
	table := policy.NewTable(inst)
	repo := network.Repository{}
	for i := 0; i < n; i++ {
		// random service: maybe a bad event, then a contract
		var parts []hexpr.Expr
		if rnd.Intn(3) == 0 {
			parts = append(parts, hexpr.Act(hexpr.E("bad", hexpr.Int(i))))
		} else if rnd.Intn(2) == 0 {
			parts = append(parts, hexpr.Act(hexpr.E("ok", hexpr.Int(i))))
		}
		parts = append(parts, hexpr.GenerateContract(rnd, 3))
		repo[hexpr.Location(fmt.Sprintf("svc%d", i))] = hexpr.Cat(parts...)
	}
	client := hexpr.Open("r1", inst.ID(), hexpr.GenerateContract(rnd, 3))
	return repo, table, client
}

// TestSoakStaticVerdictsMatchRuntime samples many random worlds and checks
// the paper's guarantees end to end:
//
//   - valid plans: every unmonitored run completes (or loops within fuel)
//     with a valid history, under many schedulers;
//   - security-violating plans: monitored runs never complete with an
//     invalid history (they abort or stay valid);
//   - non-compliant plans: the product automaton has a witness.
func TestSoakStaticVerdictsMatchRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	worlds := 40
	counts := map[verify.Verdict]int{}
	for seed := int64(0); seed < int64(worlds); seed++ {
		repo, table, client := randomWorld(seed, 4)
		as, err := plans.AssessAll(repo, table, "cl", client, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			counts[a.Report.Verdict]++
			switch a.Report.Verdict {
			case verify.Valid:
				for s := int64(0); s < 8; s++ {
					cfg := network.NewConfig(repo, table,
						network.Client{Loc: "cl", Expr: client, Plan: a.Plan.Map()})
					res := cfg.Run(network.RunOptions{
						Rand: rand.New(rand.NewSource(s)), MaxSteps: 2000})
					if res.Status == network.Deadlock || res.Status == network.SecurityAbort {
						t.Fatalf("world %d, valid plan %s, seed %d: %s",
							seed, a.Plan, s, res)
					}
					if !history.Valid(cfg.Comps[0].Hist, table) {
						t.Fatalf("world %d, valid plan %s: invalid history %s",
							seed, a.Plan, cfg.Comps[0].Hist)
					}
				}
			case verify.SecurityViolation:
				for s := int64(0); s < 4; s++ {
					cfg := network.NewConfig(repo, table,
						network.Client{Loc: "cl", Expr: client, Plan: a.Plan.Map()})
					res := cfg.Run(network.RunOptions{
						Rand: rand.New(rand.NewSource(s)), Monitored: true, MaxSteps: 2000})
					if res.Status == network.Completed &&
						!history.Valid(cfg.Comps[0].Hist, table) {
						t.Fatalf("world %d, plan %s: monitored run completed with invalid history",
							seed, a.Plan)
					}
				}
			}
		}
	}
	if counts[verify.Valid] == 0 || counts[verify.SecurityViolation] == 0 ||
		counts[verify.NotCompliant] == 0 {
		t.Fatalf("degenerate soak sample: %v", counts)
	}
	t.Logf("soak verdicts: %v", counts)
}
