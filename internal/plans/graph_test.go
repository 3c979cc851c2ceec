package plans

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/policy"
	"susc/internal/verify"
)

// TestGraphIsPointerFree: every element type the graph's arenas and the
// replayer's arrays store — tree, move, node, group, candidate run, trie
// node, visited slot, queue entry, projected move, decision, mark — holds
// no pointer, slice, map, string, interface, channel or func, so the
// collector never scans them.
func TestGraphIsPointerFree(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	var g graph
	var r replayer
	for _, typ := range []reflect.Type{
		reflect.TypeOf(g.trees.blocks).Elem().Elem(),
		reflect.TypeOf(g.moves.blocks).Elem().Elem(),
		reflect.TypeOf(g.candTrees.blocks).Elem().Elem(),
		reflect.TypeOf(g.nodeArena.blocks).Elem().Elem(),
		reflect.TypeOf(g.groups.blocks).Elem().Elem(),
		reflect.TypeOf(g.candNodes.blocks).Elem().Elem(),
		reflect.TypeOf(g.leaves.slots).Elem(),
		reflect.TypeOf(g.stageMoves).Elem(),
		reflect.TypeOf(g.stageTrees).Elem(),
		reflect.TypeOf(g.stageGroups).Elem(),
		reflect.TypeOf(g.stageNodes).Elem(),
		reflect.TypeOf(g.trie).Elem(),
		reflect.TypeOf(r.visited).Elem(),
		reflect.TypeOf(r.queue.Pop),
		reflect.TypeOf(r.moves).Elem(),
		reflect.TypeOf(r.used).Elem(),
		reflect.TypeOf(r.usedMark).Elem(),
		reflect.TypeOf(r.seenMark).Elem(),
		reflect.TypeOf(r.flowAt).Elem(),
	} {
		if typ.Kind() == reflect.Func { // the queue's element type
			typ = typ.Out(0)
		}
		check(typ.String(), typ)
	}
}

// TestColdSweepAllocatesLessThanItExpands: a cold sweep of Chained(12,2)
// with a private cache makes fewer heap objects than it expands states
// (36,856): the graph's trees, rows, nodes and groups come from arenas,
// not from one allocation each.
func TestColdSweepAllocatesLessThanItExpands(t *testing.T) {
	if testing.Short() {
		t.Skip("three cold sweeps of 4096 plans are not -short")
	}
	w := benchgen.Chained(12, 2)
	var expanded uint64
	allocs := testing.AllocsPerRun(2, func() {
		stats := &FusedStats{}
		as, err := AssessAll(w.Repo, w.Table, w.Loc, w.Client, Options{PruneNonCompliant: true, Stats: stats})
		if err != nil || len(as) != w.PlanCount {
			t.Fatalf("%d plans, err %v; want %d plans", len(as), err, w.PlanCount)
		}
		expanded = stats.StatesExpanded.Load()
	})
	if expanded != 36856 {
		t.Fatalf("the sweep expanded %d states, want 36856", expanded)
	}
	if allocs >= float64(expanded) {
		t.Fatalf("a cold sweep makes %.0f heap objects for %d expanded states", allocs, expanded)
	}
	t.Logf("%.0f heap objects for %d expanded states", allocs, expanded)
}

// TestPanicMidRunLeavesNodeUnexpanded: a panic raised while a node's
// group run is half staged (two groups staged, none filed) leaves the
// node unexpanded and files nothing, and retrying the poisoned plan on the
// same engine — and assessing every later plan — yields the reports of
// an unfaulted sweep.
func TestPanicMidRunLeavesNodeUnexpanded(t *testing.T) {
	h := benchgen.Hotels(4)
	for _, w := range []struct {
		name   string
		repo   network.Repository
		table  *policy.Table
		loc    hexpr.Location
		client hexpr.Expr
	}{
		{"paperex/C1", paperex.Repository(), paperex.Policies(), paperex.LocC1, paperex.C1()},
		{"paperex/C2", paperex.Repository(), paperex.Policies(), paperex.LocC2, paperex.C2()},
		{"hotels(4)", h.Repo, h.Table, h.Loc, h.Client},
	} {
		engine := func() *fusedEngine {
			eng, err := newFusedEngine(w.repo, w.table, w.loc, w.client, Options{PruneNonCompliant: true})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		clean, err := engine().sweep(false)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]*verify.Report{}
		for i := range clean.Len() {
			want[clean.Plan(i).Key()] = clean.Report(i)
		}

		eng := engine()
		vecs, err := eng.enumerate()
		if err != nil {
			t.Fatal(err)
		}
		eng.reserveTables(len(vecs))
		if err := eng.computeCycleSkip(); err != nil {
			t.Fatal(err)
		}
		r := eng.newReplayer()
		var unit string
		var filed int32
		restore := faultinject.Set(func(p faultinject.Point, u string) {
			if p == faultinject.FusedExpand && unit == "" && len(eng.stageGroups) >= 2 {
				unit, filed = u, eng.groups.n
				panic("injected mid-run")
			}
		})
		t.Cleanup(restore)
		for _, vec := range vecs {
			key := eng.planOf(vec).Key()
			poisoned := unit == ""
			rep, err := eng.assessGuarded(vec, r)
			if poisoned && unit != "" {
				if !errors.As(err, new(*budget.InternalError)) || rep.Verdict != verify.Unknown {
					t.Fatalf("%s: plan %s after the panic: %v, err %v", w.name, key, rep, err)
				}
				if eng.groups.n != filed {
					t.Fatalf("%s: %d groups filed after the panic, want %d", w.name, eng.groups.n, filed)
				}
				unexpanded := false
				for ni := range eng.nodeArena.n {
					n := eng.nodeArena.at(ni)
					unexpanded = unexpanded || (!n.expanded && n.nGroups == 0 && eng.treeKey(n.tree) == unit)
				}
				if !unexpanded {
					t.Fatalf("%s: no node of tree %s was left unexpanded", w.name, unit)
				}
				rep, err = eng.assessGuarded(vec, r) // the retry
			}
			if err != nil {
				t.Fatalf("%s: plan %s: %v", w.name, key, err)
			}
			if !reflect.DeepEqual(rep, want[key]) {
				t.Fatalf("%s: plan %s: %+v, an unfaulted sweep gives %+v", w.name, key, rep, want[key])
			}
		}
		if unit == "" {
			t.Fatalf("%s: no node staged two groups", w.name)
		}
	}
}

// TestKeyOrderSortsByKey: the one-buffer sort orders a sweep's plans as
// sorting their Key strings does, and keyLen is each key's length, also
// for plans that leave requests unbound.
func TestKeyOrderSortsByKey(t *testing.T) {
	c := benchgen.Chained(4, 2)
	for _, w := range []struct {
		repo   network.Repository
		table  *policy.Table
		loc    hexpr.Location
		client hexpr.Expr
	}{
		{paperex.Repository(), paperex.Policies(), paperex.LocC1, paperex.C1()},
		{paperex.Repository(), paperex.Policies(), paperex.LocC2, paperex.C2()},
		{c.Repo, c.Table, c.Loc, c.Client},
	} {
		eng, err := newFusedEngine(w.repo, w.table, w.loc, w.client, Options{})
		if err != nil {
			t.Fatal(err)
		}
		vecs, err := eng.enumerate()
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(vecs))
		for i, vec := range vecs {
			p := eng.planOf(vec)
			keys[i] = p.Key()
			if p.keyLen() != len(keys[i]) {
				t.Fatalf("plan %s: keyLen %d", keys[i], p.keyLen())
			}
		}
		var got []string
		for _, i := range eng.keyOrder(vecs) {
			got = append(got, keys[i])
		}
		want := slices.Clone(keys)
		slices.SortStableFunc(want, strings.Compare)
		if !slices.Equal(got, want) {
			t.Fatalf("keyOrder: %v, want %v", got, want)
		}
	}
}
