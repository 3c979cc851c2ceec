package plans

import (
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/verify"
)

// TestSweepWithoutReplayBuildsNoGraph: a sweep that replays no plan — a
// MaxPlans overrun, an empty family, a tiered family whose every verdict
// hits — builds no start node, mints no graph node and allocates no node
// table, and a flow read from such a family builds the start on its first
// replay.
func TestSweepWithoutReplayBuildsNoGraph(t *testing.T) {
	noGraph := func(label string, eng *fusedEngine) {
		t.Helper()
		if eng.start != nil || eng.nodeArena.n != 0 || eng.nodes.slots != nil {
			t.Fatalf("%s built a graph: start=%t nodes=%d table=%t",
				label, eng.start != nil, eng.nodeArena.n, eng.nodes.slots != nil)
		}
	}

	big := benchgen.Chained(12, 2)
	eng := newFusedEngine(big.Repo, big.Table, big.Loc, big.Client,
		Options{PruneNonCompliant: true, MaxPlans: 512})
	if _, err := eng.sweep(false); err == nil || !strings.Contains(err.Error(), "more than 512 complete plans") {
		t.Fatalf("over-cap sweep: err = %v, want the MaxPlans error", err)
	}
	noGraph("over-cap sweep", eng)

	w := benchgen.Chained(4, 2)
	unmatched := hexpr.Open("r0", hexpr.NoPolicy, hexpr.SendThen("nobody", hexpr.Eps()))
	eng = newFusedEngine(w.Repo, w.Table, w.Loc, unmatched, Options{PruneNonCompliant: true})
	fam, err := eng.sweep(false)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 0 {
		t.Fatalf("unmatched client: %d plans, want an empty family", fam.Len())
	}
	noGraph("empty sweep", eng)

	opts := Options{PruneNonCompliant: true, Cache: memo.New()}
	if _, err := newFusedEngine(w.Repo, w.Table, w.Loc, w.Client, opts).sweep(true); err != nil {
		t.Fatal(err)
	}
	eng = newFusedEngine(w.Repo, w.Table, w.Loc, w.Client, opts)
	fam, err = eng.sweep(true)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != w.PlanCount {
		t.Fatalf("warm sweep: %d plans, want %d", fam.Len(), w.PlanCount)
	}
	noGraph("warm tiered sweep", eng)

	// No flow was filed, so the first read replays plan 0 on the graph
	// the sweep never started.
	if fam.Report(0).Verdict != verify.Valid {
		t.Fatalf("plan 0: %s, want valid", fam.Report(0))
	}
	got, hit, err := fam.Flow(0)
	if err != nil || hit {
		t.Fatalf("warm flow: hit=%t err=%v, want a replayed flow", hit, err)
	}
	if eng.start == nil {
		t.Fatal("the flow replay built no start node")
	}
	cold, err := newFusedEngine(w.Repo, w.Table, w.Loc, w.Client, Options{PruneNonCompliant: true}).sweep(false)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cold.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := verify.EncodeFlow(got)
	if err != nil {
		t.Fatal(err)
	}
	wnt, err := verify.EncodeFlow(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(wnt) {
		t.Fatalf("warm family's flow:\n%s\ncold family's flow:\n%s", g, wnt)
	}
}
