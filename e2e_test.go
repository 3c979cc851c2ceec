// End-to-end properties tying the whole pipeline together: parsing,
// synthesis, static verification and execution must tell one coherent
// story — the paper's headline theorem in executable form: *a statically
// valid plan never goes wrong at run time, under any scheduler*.
package susc_test

import (
	"math/rand"
	"os"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/compliance"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/verify"
)

func loadHotelFile(t *testing.T) *parser.File {
	t.Helper()
	src, err := os.ReadFile("testdata/hotel.susc")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestE2EValidPlansNeverGoWrong: for every client of the hotel file, every
// plan synthesis classifies as valid runs to completion with the monitor
// OFF under many schedulers, producing a balanced, valid history.
func TestE2EValidPlansNeverGoWrong(t *testing.T) {
	f := loadHotelFile(t)
	for _, c := range f.Clients {
		assessed, err := plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range assessed {
			if a.Report.Verdict != verify.Valid {
				continue
			}
			for seed := int64(0); seed < 25; seed++ {
				cfg := network.NewConfig(f.Repo, f.Table,
					network.Client{Loc: c.Loc, Expr: c.Expr, Plan: a.Plan.Map()})
				res := cfg.Run(network.RunOptions{Rand: rand.New(rand.NewSource(seed))})
				if res.Status != network.Completed {
					t.Fatalf("client %s, valid plan %s, seed %d: %s",
						c.Name, a.Plan, seed, res)
				}
				h := cfg.Comps[0].Hist
				if !h.Balanced() || !history.Valid(h, f.Table) {
					t.Fatalf("client %s, plan %s: run produced bad history %s",
						c.Name, a.Plan, h)
				}
			}
		}
	}
}

// TestE2ESecurityViolatingPlansAbortWhenMonitored: plans classified as
// security violations trip the run-time monitor, and unmonitored runs of
// the same plans produce invalid histories — the monitor and the static
// verdict agree.
func TestE2ESecurityViolatingPlansAbortWhenMonitored(t *testing.T) {
	f := loadHotelFile(t)
	checked := 0
	for _, c := range f.Clients {
		assessed, err := plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range assessed {
			if a.Report.Verdict != verify.SecurityViolation {
				continue
			}
			checked++
			cfg := network.NewConfig(f.Repo, f.Table,
				network.Client{Loc: c.Loc, Expr: c.Expr, Plan: a.Plan.Map()})
			res := cfg.Run(network.RunOptions{Monitored: true})
			if res.Status != network.SecurityAbort {
				t.Errorf("client %s, plan %s: monitored run gave %s, want security-abort",
					c.Name, a.Plan, res)
			}
			free := network.NewConfig(f.Repo, f.Table,
				network.Client{Loc: c.Loc, Expr: c.Expr, Plan: a.Plan.Map()})
			fres := free.Run(network.RunOptions{})
			if fres.Status == network.Completed &&
				history.Valid(free.Comps[0].Hist, f.Table) {
				t.Errorf("client %s, plan %s: free run produced a valid history despite the verdict",
					c.Name, a.Plan)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no security-violating plans in the scenario")
	}
}

// TestE2EScaledWorlds: on generated repositories of growing size, every
// synthesized valid plan re-verifies and runs cleanly.
func TestE2EScaledWorlds(t *testing.T) {
	for _, n := range []int{4, 12, 20} {
		w := benchgen.Hotels(n)
		valid, err := plans.Synthesize(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(valid) == 0 {
			t.Fatalf("hotels=%d: no valid plan", n)
		}
		for _, p := range valid {
			ok, err := verify.ValidPlan(w.Repo, w.Table, w.Loc, w.Client, p)
			if err != nil || !ok {
				t.Fatalf("hotels=%d: synthesized plan %s fails re-validation: %v %v", n, p, ok, err)
			}
		}
		// run the first valid plan under several schedulers
		for seed := int64(0); seed < 10; seed++ {
			cfg := network.NewConfig(w.Repo, w.Table,
				network.Client{Loc: w.Loc, Expr: w.Client, Plan: valid[0]})
			res := cfg.Run(network.RunOptions{Rand: rand.New(rand.NewSource(seed))})
			if res.Status != network.Completed {
				t.Fatalf("hotels=%d seed %d: %s", n, seed, res)
			}
		}
	}
}

// TestE2ECompliantPairsNeverDeadlock: for random contract pairs, when the
// product automaton says compliant, no run of the corresponding session
// ever deadlocks (it completes or, for recursive contracts, runs out of
// fuel mid-progress); when it says non-compliant, CheckPlan flags the plan.
func TestE2ECompliantPairsNeverDeadlock(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	table := policy.NewTable()
	compliantSeen, nonCompliantSeen := 0, 0
	for i := 0; i < 200; i++ {
		cbody := hexpr.GenerateContract(rnd, 4)
		server := hexpr.GenerateContract(rnd, 4)
		ok, err := compliance.Compliant(cbody, server)
		if err != nil {
			t.Fatal(err)
		}
		client := hexpr.Open("r1", hexpr.NoPolicy, cbody)
		repo := network.Repository{"srv": server}
		plan := network.Plan{"r1": "srv"}
		if ok {
			compliantSeen++
			for seed := int64(0); seed < 5; seed++ {
				cfg := network.NewConfig(repo, table, network.Client{Loc: "cl", Expr: client, Plan: plan})
				res := cfg.Run(network.RunOptions{Rand: rand.New(rand.NewSource(seed)), MaxSteps: 500})
				if res.Status == network.Deadlock {
					t.Fatalf("compliant pair deadlocked:\n  client %s\n  server %s\n  %s",
						hexpr.Pretty(cbody), hexpr.Pretty(server), res)
				}
			}
		} else {
			nonCompliantSeen++
			r, err := verify.CheckPlan(repo, table, "cl", client, plan)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != verify.NotCompliant {
				t.Fatalf("non-compliant pair not flagged: %s\n  client %s\n  server %s",
					r, hexpr.Pretty(cbody), hexpr.Pretty(server))
			}
		}
	}
	if compliantSeen == 0 || nonCompliantSeen == 0 {
		t.Fatalf("degenerate sample: %d compliant, %d non-compliant", compliantSeen, nonCompliantSeen)
	}
}

// TestE2EFormatPreservesVerdicts: reformatting the scenario preserves
// every plan verdict.
func TestE2EFormatPreservesVerdicts(t *testing.T) {
	f1 := loadHotelFile(t)
	f2, err := parser.ParseFile(parser.Format(f1))
	if err != nil {
		t.Fatal(err)
	}
	for i, c1 := range f1.Clients {
		c2 := f2.Clients[i]
		a1, err := plans.AssessAll(f1.Repo, f1.Table, c1.Loc, c1.Expr, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := plans.AssessAll(f2.Repo, f2.Table, c2.Loc, c2.Expr, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("client %s: %d vs %d plans", c1.Name, len(a1), len(a2))
		}
		for j := range a1 {
			if a1[j].Plan.Key() != a2[j].Plan.Key() ||
				a1[j].Report.Verdict != a2[j].Report.Verdict {
				t.Errorf("client %s plan %s: verdict changed across formatting: %s vs %s",
					c1.Name, a1[j].Plan, a1[j].Report.Verdict, a2[j].Report.Verdict)
			}
		}
	}
}
