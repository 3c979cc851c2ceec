package plans_test

import (
	"fmt"
	"reflect"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
)

// capWorld is one client against a repository, for the capped sweeps.
type capWorld struct {
	label  string
	repo   network.Repository
	table  *policy.Table
	loc    hexpr.Location
	client hexpr.Expr
}

// parsedWorld parses a one-client spec into a capWorld.
func parsedWorld(t *testing.T, label, src string) capWorld {
	t.Helper()
	f, err := parser.ParseFile(src)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	c := f.Clients[0]
	return capWorld{label, f.Repo, f.Table, c.Loc, c.Expr}
}

// cycleSpec: r1 and r2 call each other through every binding, so a
// request is met again while it is being counted and the enumeration
// decides the family (4 plans pruned, every one cyclic).
const cycleSpec = `service a1 = X? . open r2 { Y! };
service a2 = X? . open r2 { Y! };
service b1 = Y? . open r1 { X! };
service b2 = Y? . open r1 { X! };
client cl at cl = open r1 { X! };`

// sharedSpec: both requests the client opens lead to r3, which each plan
// binds once. A product of per-request counts would make it 36 plans;
// the enumeration finds 12 pruned.
const sharedSpec = `service a1 = X? . open r3 { Z! };
service a2 = X? . open r3 { Z! };
service b1 = Y? . open r3 { Z! };
service b2 = Y? . open r3 { Z! };
service c1 = Z?;
service c2 = Z?;
service c3 = Z?;
client cl at cl = open r1 { X! } . open r2 { Y! };`

// capWorlds are the worlds the cap tests sweep: the Chained shapes,
// every random world of TestFusedEquivalenceRandom and
// TestFusedEquivalenceSharedSessions, a service cycle and a request two
// of the client's requests share.
func capWorlds(t *testing.T) []capWorld {
	var ws []capWorld
	for _, cfg := range []struct{ depth, fanout int }{{2, 3}, {4, 2}, {3, 3}} {
		c := benchgen.Chained(cfg.depth, cfg.fanout)
		ws = append(ws, capWorld{fmt.Sprintf("chained(%d,%d)", cfg.depth, cfg.fanout), c.Repo, c.Table, c.Loc, c.Client})
	}
	for seed := 0; seed < randomSeeds(); seed++ {
		repo, client := randomWorld(seed)
		ws = append(ws, capWorld{fmt.Sprintf("random seed=%d", seed), repo, paperex.Policies(), "cl", client})
		repo, client = sharedSessionWorld(seed)
		ws = append(ws, capWorld{fmt.Sprintf("shared seed=%d", seed), repo, paperex.Policies(), "cl", client})
	}
	return append(ws, parsedWorld(t, "cycle", cycleSpec), parsedWorld(t, "shared descendant", sharedSpec))
}

// TestMaxPlansMatchesEnumeration pins the family count to the
// enumeration: on every world, pruned and unpruned, a sweep capped at K
// fails with the MaxPlans error exactly when the legacy oracle's family
// holds more than K plans, and otherwise returns the oracle's family.
// Caps run from 1 to N+1, the middle skipped on large families.
func TestMaxPlansMatchesEnumeration(t *testing.T) {
	const dense = 40 // every cap up to here, then N-1, N and N+1
	for _, w := range capWorlds(t) {
		for _, prune := range []bool{false, true} {
			label := fmt.Sprintf("%s (prune=%v)", w.label, prune)
			legacy, err := plans.AssessAllLegacy(w.repo, w.table, w.loc, w.client, plans.Options{PruneNonCompliant: prune})
			if err != nil {
				t.Fatalf("%s: legacy: %v", label, err)
			}
			n := len(legacy)
			for k := 1; k <= n+1; k++ {
				if k > dense && k < n-1 {
					continue
				}
				got, err := plans.AssessAll(w.repo, w.table, w.loc, w.client,
					plans.Options{PruneNonCompliant: prune, MaxPlans: k})
				if n > k {
					if want := fmt.Sprintf("plans: more than %d complete plans", k); err == nil || err.Error() != want {
						t.Fatalf("%s, cap %d of %d plans: err = %v, want %q", label, k, n, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s, cap %d of %d plans: %v", label, k, n, err)
				}
				if !reflect.DeepEqual(got, legacy) {
					t.Fatalf("%s, cap %d: the capped family differs from the legacy one", label, k)
				}
			}
		}
	}
}

// TestOverCapSweepEnumeratesNothing: the count refuses Chained(12,2)'s
// 4096 plans at a cap of 512 before the enumeration prunes a single
// binding. Worlds it cannot count (a service cycle, a request two
// requests of the client share) still get the same error past their cap,
// from the enumeration, which prunes on the way.
func TestOverCapSweepEnumeratesNothing(t *testing.T) {
	sweep := func(w capWorld, maxPlans int) *plans.FusedStats {
		t.Helper()
		var stats plans.FusedStats
		_, err := plans.AssessWithFlows(w.repo, w.table, w.loc, w.client,
			plans.Options{PruneNonCompliant: true, MaxPlans: maxPlans, Stats: &stats})
		if want := fmt.Sprintf("plans: more than %d complete plans", maxPlans); err == nil || err.Error() != want {
			t.Fatalf("%s: err = %v, want %q", w.label, err, want)
		}
		return &stats
	}
	c := benchgen.Chained(12, 2)
	stats := sweep(capWorld{"chained(12,2)", c.Repo, c.Table, c.Loc, c.Client}, 512)
	if n := stats.BindingsPruned.Load(); n != 0 {
		t.Errorf("chained(12,2): the over-cap sweep pruned %d bindings, want 0 (refused by the count)", n)
	}
	for _, w := range []capWorld{parsedWorld(t, "cycle", cycleSpec), parsedWorld(t, "shared descendant", sharedSpec)} {
		stats := sweep(w, 3)
		if stats.BindingsPruned.Load() == 0 {
			t.Errorf("%s: no binding pruned: the error did not come from the enumeration", w.label)
		}
	}
}
