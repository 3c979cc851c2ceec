package plans_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/store"
	"susc/internal/verify"
)

// render flattens assessments into comparable strings: the plan key plus
// the report's full JSON wire form. Fresh and store-decoded reports differ
// internally (live trace entries vs labels), so equality is defined — as
// everywhere in the CLI — over the rendered output.
func render(t *testing.T, as []plans.Assessment) []string {
	t.Helper()
	out := make([]string, len(as))
	for i, a := range as {
		j, err := json.Marshal(a.Report)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a.Plan.Key() + " " + a.Report.String() + " " + string(j)
	}
	return out
}

func assertSameAssessments(t *testing.T, label string, got, want []plans.Assessment) {
	t.Helper()
	g, w := render(t, got), render(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d assessments, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: assessment %d:\ngot  %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// TestIncrementalWarmStoreMatches: with a store attached, AssessAll's
// verdicts are identical to the storeless run — cold (computing and
// persisting) and warm (replaying every plan from disk with zero
// exploration).
func TestIncrementalWarmStoreMatches(t *testing.T) {
	w := benchgen.Chained(3, 2)
	opts := plans.Options{PruneNonCompliant: true}
	baseline, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "susc.store")
	s1, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.New()
	cold.AttachDisk(s1)
	coldAs, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "cold", coldAs, baseline)
	if wb := s1.Stats().PerKind[store.KindPlanReport].Writebacks; wb != uint64(len(baseline)) {
		t.Fatalf("cold run wrote back %d plan reports, want %d", wb, len(baseline))
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm := memo.New()
	warm.AttachDisk(s2)
	warmAs, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "warm", warmAs, baseline)
	st := s2.Stats().PerKind[store.KindPlanReport]
	if st.Misses != 0 || st.Hits != uint64(len(baseline)) {
		t.Fatalf("warm run: %d hits, %d misses; want %d hits, 0 misses",
			st.Hits, st.Misses, len(baseline))
	}
	if s2.Stats().Writebacks() != 0 {
		t.Fatal("warm run wrote back; the store was already complete")
	}
}

// TestIncrementalConeEditRecomputesOnlyCone is the incremental headline:
// after a one-declaration edit, the sweep recomputes exactly the plans
// whose dependency cone contains the edited service — counted by store
// misses, by write-backs (each recomputed cone writes back once) AND by
// the fused engine's assessed plans (every miss is replayed there) — and
// reads everything else from the store.
func TestIncrementalConeEditRecomputesOnlyCone(t *testing.T) {
	const depth, fanout = 2, 4 // 16 plans; editing one leaf invalidates 4
	w := benchgen.Chained(depth, fanout)
	opts := plans.Options{PruneNonCompliant: true}

	path := filepath.Join(t.TempDir(), "susc.store")
	s1, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.New()
	cold.AttachDisk(s1)
	coldAs, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Workers: 4, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if len(coldAs) != w.PlanCount {
		t.Fatalf("cold: %d plans, want %d", len(coldAs), w.PlanCount)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The edit: an extra internal event at the head of leaf service s2_3.
	// Communication behaviour is unchanged, so every verdict stays Valid —
	// only the cones move.
	edited := network.Repository{}
	for l, e := range w.Repo {
		edited[l] = e
	}
	target := hexpr.Location("s2_3")
	edited[target] = hexpr.Cat(hexpr.Act(hexpr.E("tweak")), w.Repo[target])

	baseline, err := plans.AssessAll(edited, w.Table, w.Loc, w.Client, opts)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm := memo.New()
	warm.AttachDisk(s2)
	var fused plans.FusedStats
	got, err := plans.AssessAll(edited, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Workers: 4, Cache: warm, Stats: &fused})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "after edit", got, baseline)

	st := s2.Stats().PerKind[store.KindPlanReport]
	wantMisses := uint64(w.PlanCount / fanout) // plans binding r2 → s2_3
	if st.Misses != wantMisses {
		t.Fatalf("edit invalidated %d plans, want exactly %d (the cone of %s)",
			st.Misses, wantMisses, target)
	}
	if st.Hits != uint64(w.PlanCount)-wantMisses {
		t.Fatalf("replayed %d plans, want %d", st.Hits, uint64(w.PlanCount)-wantMisses)
	}
	if st.Writebacks != wantMisses {
		t.Fatalf("recomputed (wrote back) %d plans, want exactly %d", st.Writebacks, wantMisses)
	}
	if n := fused.PlansAssessed.Load(); n != wantMisses {
		t.Fatalf("fused engine assessed %d plans, want exactly the %d misses", n, wantMisses)
	}
}

// TestIncrementalLargeEditFallsBackToFused: an edit that invalidates half
// of the plan space replays the misses on the shared-graph engine, as
// every edit does — results stay identical, and exactly the misses are
// written back.
func TestIncrementalLargeEditFallsBackToFused(t *testing.T) {
	const depth, fanout = 2, 2 // 4 plans; editing s2_1 invalidates 2
	w := benchgen.Chained(depth, fanout)

	path := filepath.Join(t.TempDir(), "susc.store")
	s1, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.New()
	cold.AttachDisk(s1)
	if _, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cold}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	edited := network.Repository{}
	for l, e := range w.Repo {
		edited[l] = e
	}
	edited["s2_1"] = hexpr.Cat(hexpr.Act(hexpr.E("tweak")), w.Repo["s2_1"])
	baseline, err := plans.AssessAll(edited, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm := memo.New()
	warm.AttachDisk(s2)
	got, err := plans.AssessAll(edited, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "large edit", got, baseline)
	st := s2.Stats().PerKind[store.KindPlanReport]
	if st.Misses != 2 || st.Writebacks != 2 {
		t.Fatalf("misses=%d writebacks=%d, want 2 and 2", st.Misses, st.Writebacks)
	}
}

// TestEngineParityWithStore is the acceptance gate: both engines
// produce byte-identical rendered verdicts with the store disabled,
// enabled-cold and enabled-warm. The paper world exercises every verdict
// class (valid, non-compliant, security violation).
func TestEngineParityWithStore(t *testing.T) {
	repo := paperex.Repository()
	table := paperex.Policies()
	client, loc := paperex.C1(), paperex.LocC1

	baseline, err := plans.AssessAll(repo, table, loc, client,
		plans.Options{PruneNonCompliant: false})
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, baseline)

	engines := []struct {
		name   string
		assess assessFunc
	}{
		{"legacy", plans.AssessAllLegacy},
		{"fused", plans.AssessAll},
	}
	for _, eng := range engines {
		// Disabled: no store at all.
		as, err := eng.assess(repo, table, loc, client, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareRendered(t, eng.name+"/disabled", render(t, as), want)

		// Enabled-cold and enabled-warm share one store.
		s, err := store.Open(filepath.Join(t.TempDir(), "susc.store"), hash.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"cold", "warm"} {
			cache := memo.New()
			cache.AttachDisk(s)
			as, err := eng.assess(repo, table, loc, client,
				plans.Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			compareRendered(t, eng.name+"/"+phase, render(t, as), want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func compareRendered(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assessments, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: assessment %d:\ngot  %s\nwant %s", label, i, got[i], want[i])
		}
	}
}

// TestIncrementalNeverPersistsUnknown: a budget cutoff mid-assessment
// leaves only decided verdicts on disk; entries equal write-backs, and a
// later unconstrained warm run completes the store.
func TestIncrementalNeverPersistsUnknown(t *testing.T) {
	w := benchgen.Chained(3, 2)
	s, err := store.Open(filepath.Join(t.TempDir(), "susc.store"), hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cache := memo.New()
	cache.AttachDisk(s)
	b := budget.New(context.Background(), budget.Limits{MaxStates: 40})
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cache, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	unknown := 0
	for _, a := range as {
		if a.Report.Verdict == verify.Unknown {
			unknown++
		}
	}
	if unknown == 0 {
		t.Skip("budget did not bite; nothing to assert")
	}
	st := s.Stats().PerKind[store.KindPlanReport]
	if st.Entries != uint64(len(as)-unknown) {
		t.Fatalf("store holds %d plan entries, want %d (the decided verdicts only)",
			st.Entries, len(as)-unknown)
	}

	free := memo.New()
	free.AttachDisk(s)
	full, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: free})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range full {
		if a.Report.Verdict == verify.Unknown {
			t.Fatalf("unconstrained run still unknown for %s", a.Plan)
		}
	}
	if got := s.Stats().PerKind[store.KindPlanReport].Entries; got != uint64(len(full)) {
		t.Fatalf("store holds %d entries after completion, want %d", got, len(full))
	}
}

// TestSweepKeysMatchPlanKey: the sweep files every plan's verdict under
// verify.PlanKey of that plan — the key a check of the same plan, a
// parent-written store and the cone-invalidation gates read. The sweep
// folds each key from binding parts rendered once per (request, location)
// cell of the plan's vector. Inputs: the checked-in specs, with pruning
// on and, where the family stays small, off; the random worlds of
// TestFusedEquivalenceRandom; and a world whose repeated request ID
// carries a different body and policy in each service, which the sweep
// refuses to key.
func TestSweepKeysMatchPlanKey(t *testing.T) {
	check := func(label string, repo network.Repository, table *policy.Table,
		loc hexpr.Location, client hexpr.Expr) {
		t.Helper()
		for _, prune := range []bool{true, false} {
			opts := plans.Options{PruneNonCompliant: prune, MaxPlans: 5000}
			ps, sums, err := plans.SweepKeys(repo, table, loc, client, opts)
			if err != nil {
				if !prune {
					continue // too many plans without pruning
				}
				t.Fatalf("%s: %v", label, err)
			}
			for i, p := range ps {
				want := verify.PlanKey(repo, table, loc, client, p, nil)
				if sums[i] != want {
					t.Fatalf("%s (prune=%v): plan %s keyed %s, PlanKey %s", label, prune, p, sums[i], want)
				}
			}
		}
	}

	var files []string
	for _, pattern := range []string{"../benchgen/testdata/*.susc", "../../testdata/*.susc", "../../examples/specs/*.susc"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 6 {
		t.Fatalf("found only %d specs: %v", len(files), files)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, c := range f.Clients {
			check(filepath.Base(path)+" "+c.Name, f.Repo, f.Table, c.Loc, c.Expr)
		}
	}

	for seed := 0; seed < 40; seed++ {
		g := &worldGen{r: rand.New(rand.NewSource(int64(seed)))}
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
		check(fmt.Sprintf("seed=%d", seed), repo, paperex.Policies(), "cl", client)
	}

	// r2 is opened by the client after r1, and again — with another body
	// and policy — by each service r1 can bind: the world breaks the rule
	// of one body per request identifier, and the sweep refuses it.
	r2 := func(ch string, pol hexpr.PolicyID) hexpr.Expr {
		return hexpr.Open("r2", pol, hexpr.SendThen(ch, hexpr.Eps()))
	}
	repo := network.Repository{
		"sa": hexpr.Cat(hexpr.RecvThen("m", hexpr.Eps()), r2("a", paperex.Phi1().ID())),
		"sb": hexpr.Cat(hexpr.RecvThen("m", hexpr.Eps()), r2("b", hexpr.NoPolicy)),
		"ta": hexpr.RecvThen("a", hexpr.Eps()),
		"tb": hexpr.RecvThen("b", hexpr.Eps()),
		"tc": hexpr.RecvThen("c", hexpr.Eps()),
	}
	client := hexpr.Cat(hexpr.Open("r1", hexpr.NoPolicy, hexpr.SendThen("m", hexpr.Eps())), r2("c", paperex.Phi2().ID()))
	for _, prune := range []bool{true, false} {
		_, _, err := plans.SweepKeys(repo, paperex.Policies(), "cl", client, plans.Options{PruneNonCompliant: prune})
		if !errors.Is(err, plans.ErrRequestClash) || !strings.Contains(err.Error(), "request r2 ") {
			t.Fatalf("repeated request (prune=%v): err = %v, want the refusal of r2", prune, err)
		}
	}
}

// TestMemoryTierNeverHoldsUnknown: TestIncrementalNeverPersistsUnknown
// for a memory-only session. A budget cut mid-sweep leaves only decided
// cones in the report tier, and a roomy rerun on the same session
// answers what a fresh session does.
func TestMemoryTierNeverHoldsUnknown(t *testing.T) {
	w := benchgen.Chained(3, 2)
	cache := memo.New()
	b := budget.New(context.Background(), budget.Limits{MaxStates: 40})
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cache, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	unknown := 0
	for _, a := range as {
		if a.Report.Verdict == verify.Unknown {
			unknown++
		}
	}
	if unknown == 0 || unknown == len(as) {
		t.Fatalf("%d of %d plans unknown: the budget must cut the sweep midway", unknown, len(as))
	}
	if got := cache.Stats().ReportEntries; got != uint64(len(as)-unknown) {
		t.Fatalf("memory tier holds %d reports, want %d (the decided verdicts only)", got, len(as)-unknown)
	}

	again, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Cache: memo.New()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssessments(t, "roomy rerun", again, fresh)
	if got := cache.Stats().ReportEntries; got != uint64(len(as)) {
		t.Fatalf("memory tier holds %d reports after the rerun, want %d", got, len(as))
	}
}

// TestMemoryTierNeverHoldsUnknownFlow: TestMemoryTierNeverHoldsUnknown
// for the audit's flows. A budget that cuts the audit's sequence — the
// sweep, then each valid plan's flow — between two flows leaves only
// decided verdicts and flows in a memory-only session's report tier, and
// a roomy rerun on that session answers what a fresh session does.
func TestMemoryTierNeverHoldsUnknownFlow(t *testing.T) {
	w := benchgen.Chained(3, 2)
	// audit renders every verdict and every valid plan's flow, and counts
	// the decided ones.
	audit := func(cache *memo.Cache, b *budget.Budget) (out []string, decided, cut int) {
		fam, err := plans.AssessWithFlows(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true, Cache: cache, Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fam.Len(); i++ {
			r := fam.Report(i)
			out = append(out, fam.Plan(i).Key()+" "+string(r.AppendJSON(nil)))
			if r.Verdict == verify.Unknown {
				continue
			}
			decided++
			if r.Verdict != verify.Valid {
				continue
			}
			f, _, err := fam.Flow(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, encodeFlow(t, f))
			if f.Verdict == verify.Unknown.String() {
				cut++
			} else {
				decided++
			}
		}
		return out, decided, cut
	}
	fresh, decided, cut := audit(memo.New(), nil)
	if cut != 0 || decided != 2*w.PlanCount {
		t.Fatalf("roomy audit: %d decided, %d cut; want %d and 0", decided, cut, 2*w.PlanCount)
	}
	for n := int64(1); n <= 2000; n++ {
		cache := memo.New()
		b := budget.New(context.Background(), budget.Limits{MaxStates: n})
		_, decided, cut := audit(cache, b)
		if cut == 0 || decided <= w.PlanCount {
			continue // no flow cut, or none decided
		}
		if got := cache.Stats().ReportEntries; got != uint64(decided) {
			t.Fatalf("MaxStates %d: memory tier holds %d records, want %d (the decided verdicts and flows only)",
				n, got, decided)
		}
		again, _, _ := audit(cache, nil)
		if len(again) != len(fresh) {
			t.Fatalf("MaxStates %d: roomy rerun gave %d records, fresh %d", n, len(again), len(fresh))
		}
		for i := range again {
			if again[i] != fresh[i] {
				t.Fatalf("MaxStates %d: roomy rerun record %d:\ngot  %s\nwant %s", n, i, again[i], fresh[i])
			}
		}
		if got := cache.Stats().ReportEntries; got != uint64(2*w.PlanCount) {
			t.Fatalf("MaxStates %d: memory tier holds %d records after the rerun, want %d", n, got, 2*w.PlanCount)
		}
		return
	}
	t.Fatal("no budget cut the flows between two decided ones")
}
