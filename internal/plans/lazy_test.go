package plans

import (
	"os"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/policy"
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

	engine := func(repo network.Repository, table *policy.Table, loc hexpr.Location,
		client hexpr.Expr, opts Options) *fusedEngine {
		t.Helper()
		eng, err := newFusedEngine(repo, table, loc, client, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	big := benchgen.Chained(12, 2)
	eng := engine(big.Repo, big.Table, big.Loc, big.Client,
		Options{PruneNonCompliant: true, MaxPlans: 512})
	if _, err := eng.sweep(false); err == nil || !strings.Contains(err.Error(), "more than 512 complete plans") {
		t.Fatalf("over-cap sweep: err = %v, want the MaxPlans error", err)
	}
	noGraph("over-cap sweep", eng)

	w := benchgen.Chained(4, 2)
	unmatched := hexpr.Open("r0", hexpr.NoPolicy, hexpr.SendThen("nobody", hexpr.Eps()))
	eng = engine(w.Repo, w.Table, w.Loc, unmatched, Options{PruneNonCompliant: true})
	fam, err := eng.sweep(false)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 0 {
		t.Fatalf("unmatched client: %d plans, want an empty family", fam.Len())
	}
	noGraph("empty sweep", eng)

	opts := Options{PruneNonCompliant: true, Cache: memo.New()}
	if _, err := engine(w.Repo, w.Table, w.Loc, w.Client, opts).sweep(true); err != nil {
		t.Fatal(err)
	}
	eng = engine(w.Repo, w.Table, w.Loc, w.Client, opts)
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
	cold, err := engine(w.Repo, w.Table, w.Loc, w.Client, Options{PruneNonCompliant: true}).sweep(false)
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

// blockCaps lists the capacities of the arena's blocks.
func blockCaps[T any](a *arena[T]) []int {
	caps := make([]int, len(a.blocks))
	for k, b := range a.blocks {
		caps[k] = cap(b)
	}
	return caps
}

// arenaCap is the number of entries the arena's blocks can hold.
func arenaCap[T any](a *arena[T]) int {
	n := 0
	for _, c := range blockCaps(a) {
		n += c
	}
	return n
}

// checkArenaAddressing allocates past every block boundary of a fresh
// arena (63–65, 127–129, …, 4095–4097, 8191–8193) and holds every index
// to the pointer alloc returned for it, read back after the last
// allocation, so no entry moved; the blocks hold 64, 64, 128, …, 2048,
// then 4096 entries.
func checkArenaAddressing[T any](t *testing.T, name string) {
	t.Helper()
	var a arena[T]
	const n = 8194
	ptrs := make([]*T, n)
	for i := range ptrs {
		p, idx := a.alloc()
		if idx != int32(i) {
			t.Fatalf("%s: alloc %d returned index %d", name, i, idx)
		}
		ptrs[i] = p
	}
	for i, p := range ptrs {
		if got := a.at(int32(i)); got != p {
			t.Fatalf("%s: at(%d) = %p, alloc returned %p", name, i, got, p)
		}
	}
	want := []int{64, 64, 128, 256, 512, 1024, 2048, 4096, 4096}
	if got := blockCaps(&a); !slices.Equal(got, want) {
		t.Fatalf("%s: block capacities %v, want %v", name, got, want)
	}
}

// TestArenaAddressing: both arenas hand out stable pointers that at
// finds again, in geometric blocks up to 4096 entries.
func TestArenaAddressing(t *testing.T) {
	checkArenaAddressing[ctree](t, "pair arena")
	checkArenaAddressing[fnode](t, "node arena")
}

// TestSmallSweepAllocatesForItsGraph: a sweep's arenas and tables grow
// with the graph it builds, not with the million-state families the
// engine serves too. Each arena holds at most twice its entries plus one
// first block, and each table at most what the family reserved or four
// slots per entry; hotel.susc's c1, whose graph has tens of nodes, keeps
// all four under 64 KiB (a fixed 4096-entry block per arena and 8192
// slots per table would be 736 KiB).
func TestSmallSweepAllocatesForItsGraph(t *testing.T) {
	src, err := os.ReadFile("../../testdata/hotel.susc")
	if err != nil {
		t.Fatal(err)
	}
	hotel, err := parser.ParseFile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	deny := []hexpr.Location{"s1_1", "s4_0", "s7_1"}
	guarded, err := parser.ParseFile(benchgen.GuardedChainedSource(8, 2, deny))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		f      *parser.File
		client string
		limit  uintptr // bytes of both arenas and both tables, 0 = unchecked
	}{
		{"hotel c1", hotel, "c1", 64 << 10},
		{"guarded Chained(8,2)", guarded, "cl", 0},
	} {
		c, err := tc.f.Client(tc.client)
		if err != nil {
			t.Fatal(err)
		}
		engine := func() *fusedEngine {
			eng, err := newFusedEngine(tc.f.Repo, tc.f.Table, c.Loc, c.Expr, Options{PruneNonCompliant: true})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		eng := engine()
		fam, err := eng.sweep(false)
		if err != nil {
			t.Fatal(err)
		}
		reserved := engine()
		reserved.reserveTables(fam.Len())
		for _, a := range []struct {
			name   string
			n, cap int
		}{
			{"pair arena", int(eng.pairArena.n), arenaCap(&eng.pairArena)},
			{"node arena", int(eng.nodeArena.n), arenaCap(&eng.nodeArena)},
		} {
			if a.cap > 2*a.n+64 {
				t.Errorf("%s: %s holds %d entries in %d", tc.name, a.name, a.n, a.cap)
			}
		}
		for _, m := range []struct {
			name      string
			got, resv *u64map
		}{
			{"pair table", &eng.pairs, &reserved.pairs},
			{"node table", &eng.nodes, &reserved.nodes},
		} {
			if limit := max(len(m.resv.slots), 4*m.got.n, minSlots); len(m.got.slots) > limit {
				t.Errorf("%s: %s has %d slots for %d entries (reserved %d)",
					tc.name, m.name, len(m.got.slots), m.got.n, len(m.resv.slots))
			}
		}
		bytes := uintptr(arenaCap(&eng.pairArena))*unsafe.Sizeof(ctree{}) +
			uintptr(arenaCap(&eng.nodeArena))*unsafe.Sizeof(fnode{}) +
			uintptr(len(eng.pairs.slots)+len(eng.nodes.slots))*unsafe.Sizeof(u64slot{})
		if tc.limit > 0 && bytes >= tc.limit {
			t.Errorf("%s: arenas and tables hold %d bytes, want under %d", tc.name, bytes, tc.limit)
		}
	}
}

// TestBigSweepReservesItsTables: on Chained(12,2) the family sizes both
// tables before the first replay and neither grows during the sweep, and
// the arenas fill 4096-entry blocks past their first 4096 entries.
func TestBigSweepReservesItsTables(t *testing.T) {
	w := benchgen.Chained(12, 2)
	engine := func() *fusedEngine {
		eng, err := newFusedEngine(w.Repo, w.Table, w.Loc, w.Client, Options{PruneNonCompliant: true})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	reserved := engine()
	reserved.reserveTables(w.PlanCount)
	eng := engine()
	if _, err := eng.sweep(false); err != nil {
		t.Fatal(err)
	}
	if len(eng.pairs.slots) != len(reserved.pairs.slots) || len(eng.nodes.slots) != len(reserved.nodes.slots) {
		t.Fatalf("tables grew past their reservation: %d pair slots (reserved %d), %d node slots (reserved %d)",
			len(eng.pairs.slots), len(reserved.pairs.slots), len(eng.nodes.slots), len(reserved.nodes.slots))
	}
	for _, a := range []struct {
		name   string
		blocks []int
	}{
		{"pair arena", blockCaps(&eng.pairArena)},
		{"node arena", blockCaps(&eng.nodeArena)},
	} {
		if len(a.blocks) <= 7 {
			t.Fatalf("%s: %d blocks, want more than the 4096 entries of the first seven", a.name, len(a.blocks))
		}
		for k, c := range a.blocks[7:] {
			if c != 1<<arenaShift {
				t.Fatalf("%s: block %d holds %d entries, want %d", a.name, 7+k, c, 1<<arenaShift)
			}
		}
	}
}
