package verify_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/policy"
	"susc/internal/store"
	"susc/internal/verify"
)

// paperPlans covers every verdict class the paper's running example
// produces: valid, security violation (with a trace), non-compliance
// (with a product witness) and a communication deadlock (with a stuck
// configuration tree).
var paperPlans = []network.Plan{
	{"r1": paperex.LocBr, "r3": paperex.LocS3},
	{"r1": paperex.LocBr, "r3": paperex.LocS1},
	{"r1": paperex.LocBr, "r3": paperex.LocS2},
	{"r1": paperex.LocBr},
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(filepath.Join(t.TempDir(), "susc.store"), hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReportRoundTrip: a report decoded from its stored form renders
// byte-identically to the fresh one, both as text and as JSON — the store
// must be invisible in every output.
func TestReportRoundTrip(t *testing.T) {
	for _, plan := range paperPlans {
		fresh, err := verify.CheckPlan(paperex.Repository(), paperex.Policies(),
			paperex.LocC1, paperex.C1(), plan)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := verify.EncodeReport(fresh)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := verify.DecodeReport(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := decoded.String(), fresh.String(); got != want {
			t.Errorf("plan %v: decoded String %q, fresh %q", plan, got, want)
		}
		fj, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		dj, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if string(fj) != string(dj) {
			t.Errorf("plan %v: decoded JSON %s, fresh %s", plan, dj, fj)
		}
	}
}

// TestDiskTierReplaysAcrossProcesses: a verdict persisted by one cache is
// found by a fresh cache over a reopened store — the cross-invocation
// reuse `-cache` exists for — and renders identically.
func TestDiskTierReplaysAcrossProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "susc.store")
	want := make([]string, len(paperPlans))

	s1, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	cache := memo.New()
	cache.AttachDisk(s1)
	for i, plan := range paperPlans {
		r, err := verify.CheckPlanOpts(paperex.Repository(), paperex.Policies(),
			paperex.LocC1, paperex.C1(), plan, verify.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.String()
	}
	if w := s1.Stats().Writebacks(); w == 0 {
		t.Fatal("no write-backs recorded on the cold run")
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
	for i, plan := range paperPlans {
		r, err := verify.CheckPlanOpts(paperex.Repository(), paperex.Policies(),
			paperex.LocC1, paperex.C1(), plan, verify.Options{Cache: warm})
		if err != nil {
			t.Fatal(err)
		}
		if r.String() != want[i] {
			t.Errorf("plan %v: warm report %q, cold %q", paperPlans[i], r.String(), want[i])
		}
	}
	st := s2.Stats().PerKind[store.KindPlanReport]
	if st.Hits != uint64(len(paperPlans)) {
		t.Fatalf("plan-report stats = %+v, want %d hits", st, len(paperPlans))
	}
	if st.Misses != 0 {
		t.Fatalf("warm run recorded %d plan-report misses, want 0", st.Misses)
	}
	if s2.Stats().Writebacks() != 0 {
		t.Fatal("warm run wrote back; everything should have been resident")
	}
}

// TestUnknownNeverPersisted: a budget-aborted Unknown verdict describes
// this run's limits, not the cone's content — it must never be written
// back, and a later unconstrained run must decide (and only then persist)
// the real verdict.
func TestUnknownNeverPersisted(t *testing.T) {
	s := openTestStore(t)
	cache := memo.New()
	cache.AttachDisk(s)
	plan := network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}

	b := budget.New(context.Background(), budget.Limits{MaxStates: 2})
	r, err := verify.CheckPlanOpts(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plan, verify.Options{Cache: cache, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != verify.Unknown {
		t.Fatalf("verdict = %s, want unknown (the premise of the test)", r.Verdict)
	}
	if st := s.Stats().PerKind[store.KindPlanReport]; st.Entries != 0 {
		t.Fatalf("unknown verdict persisted: %d plan-report entries", st.Entries)
	}

	free := memo.New()
	free.AttachDisk(s)
	r2, err := verify.CheckPlanOpts(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plan, verify.Options{Cache: free})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Verdict != verify.Valid {
		t.Fatalf("unconstrained verdict = %s, want valid", r2.Verdict)
	}
	if st := s.Stats().PerKind[store.KindPlanReport]; st.Entries != 1 {
		t.Fatalf("decided verdict not persisted: stats %+v", st)
	}
}

// TestUnknownNeverInMemoryTier: TestUnknownNeverPersisted for a
// memory-only cache. A budget-cut check leaves the report tier empty, so
// a roomy rerun on the same cache recomputes and answers what a fresh
// cache does — and files that decided verdict.
func TestUnknownNeverInMemoryTier(t *testing.T) {
	cache := memo.New()
	plan := network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}
	check := func(c *memo.Cache, b *budget.Budget) *verify.Report {
		t.Helper()
		r, err := verify.CheckPlanOpts(paperex.Repository(), paperex.Policies(),
			paperex.LocC1, paperex.C1(), plan, verify.Options{Cache: c, Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	if r := check(cache, budget.New(context.Background(), budget.Limits{MaxStates: 2})); r.Verdict != verify.Unknown {
		t.Fatalf("verdict = %s, want unknown (the premise of the test)", r.Verdict)
	}
	if st := cache.Stats(); st.ReportEntries != 0 {
		t.Fatalf("unknown verdict filed in memory: %d report entries", st.ReportEntries)
	}
	again, fresh := check(cache, nil), check(memo.New(), nil)
	if again.Verdict != verify.Valid || again.String() != fresh.String() {
		t.Fatalf("roomy rerun = %s, fresh cache = %s; want the same valid report", again, fresh)
	}
	if st := cache.Stats(); st.ReportEntries != 1 || st.ReportHits != 0 {
		t.Fatalf("decided verdict not filed once: %+v", st)
	}
	if check(cache, nil) != again {
		t.Fatal("a third check must read the filed report")
	}
}

// TestPlanKeyerMatchesPlanKey: a key folded from binding parts rendered
// once equals PlanKey's, over every plan of the paper's repository —
// bound, unbound and bound outside the repository — and over
// policy-free and policy-laden cones.
func TestPlanKeyerMatchesPlanKey(t *testing.T) {
	repo, table := paperex.Repository(), paperex.Policies()
	locs := []hexpr.Location{"", "nowhere"}
	for l := range repo {
		locs = append(locs, l)
	}
	k := verify.NewPlanKeyer(table, paperex.LocC1, paperex.C1())
	for _, l1 := range locs {
		for _, l3 := range locs {
			plan := network.Plan{}
			if l1 != "" {
				plan["r1"] = l1
			}
			if l3 != "" {
				plan["r3"] = l3
			}
			want := verify.PlanKey(repo, table, paperex.LocC1, paperex.C1(), plan, nil)
			reqs := verify.PlannedRequests(repo, paperex.C1(), plan)
			sort.Slice(reqs, func(i, j int) bool { return reqs[i].Req < reqs[j].Req })
			var bs []*verify.Binding
			for _, pr := range reqs {
				bs = append(bs, k.Binding(pr))
			}
			if got := k.Sum(bs); got != want {
				t.Errorf("plan %s: keyer %s, PlanKey %s", plan, got, want)
			}
		}
	}
}

// TestPlanKeyerResumes: Sum resumes each digest from the binding prefix
// it shares with the previous call, so its keys must not depend on what
// came before. Each keyer renders one Binding per (request, location), as
// a plan sweep does, so consecutive plans share prefixes by pointer.
// Plans drawn at random — lists of varying lengths (a
// request bound off its level opens a different tail, an unbound or
// dangling one none), with equal and differing prefixes and repeats —
// are keyed on one keyer and must equal a fresh keyer's sum and PlanKey,
// over the paper's policy-laden repository, a policy-free chain, and the
// chain with two services framed, so plans sharing a prefix differ in
// the policies their tails bring.
func TestPlanKeyerResumes(t *testing.T) {
	chain := benchgen.Chained(3, 3)
	framed := network.Repository{}
	for l, e := range chain.Repo {
		framed[l] = e
	}
	framed["s2_0"] = hexpr.Frame(paperex.Phi1().ID(), framed["s2_0"])
	framed["s3_1"] = hexpr.Frame(paperex.Phi2().ID(), framed["s3_1"])
	worlds := []struct {
		name   string
		repo   network.Repository
		table  *policy.Table
		loc    hexpr.Location
		client hexpr.Expr
		reqs   []hexpr.RequestID
	}{
		{"paper", paperex.Repository(), paperex.Policies(), paperex.LocC1, paperex.C1(),
			[]hexpr.RequestID{"r1", "r3"}},
		{"chained(3,3)", chain.Repo, chain.Table, chain.Loc, chain.Client, chain.Requests},
		{"framed chained(3,3)", framed, paperex.Policies(), chain.Loc, chain.Client, chain.Requests},
	}
	lengths := map[int]bool{}
	for _, w := range worlds {
		locs := []hexpr.Location{"", "nowhere"}
		for l := range w.repo {
			locs = append(locs, l)
		}
		slices.Sort(locs)
		plans := []network.Plan{{}}
		for _, req := range w.reqs {
			var next []network.Plan
			for _, p := range plans {
				for _, l := range locs {
					q := p.Clone()
					if l != "" {
						q[req] = l
					}
					next = append(next, q)
				}
			}
			plans = next
		}
		sorted := func(p network.Plan) []verify.PlannedRequest {
			reqs := verify.PlannedRequests(w.repo, w.client, p)
			sort.Slice(reqs, func(i, j int) bool { return reqs[i].Req < reqs[j].Req })
			return reqs
		}
		k := verify.NewPlanKeyer(w.table, w.loc, w.client)
		cells := map[string]*verify.Binding{}
		rng := rand.New(rand.NewSource(1))
		prev := 0
		for n := 0; n < 2000; n++ {
			i := rng.Intn(len(plans))
			switch rng.Intn(4) {
			case 0:
				i = prev // a repeat
			case 1:
				i = (prev + 1) % len(plans) // a neighbour: a long shared prefix
			}
			prev = i
			p := plans[i]
			reqs := sorted(p)
			lengths[len(reqs)] = true
			var bs, fresh []*verify.Binding
			f := verify.NewPlanKeyer(w.table, w.loc, w.client)
			for _, pr := range reqs {
				cell := string(pr.Req) + ">" + string(pr.Loc)
				if cells[cell] == nil {
					cells[cell] = k.Binding(pr)
				}
				bs = append(bs, cells[cell])
				fresh = append(fresh, f.Binding(pr))
			}
			want := verify.PlanKey(w.repo, w.table, w.loc, w.client, p, nil)
			if got := k.Sum(bs); got != want {
				t.Fatalf("%s, call %d, plan %s: resumed keyer %s, PlanKey %s", w.name, n, p, got, want)
			}
			if got := f.Sum(fresh); got != want {
				t.Fatalf("%s, plan %s: fresh keyer %s, PlanKey %s", w.name, p, got, want)
			}
		}
	}
	if len(lengths) < 3 {
		t.Fatalf("binding lists of %d lengths only", len(lengths))
	}
}

// TestPlanKeyConeSensitivity: the plan-report key must move with every
// declaration inside the verdict's dependency cone and with nothing
// outside it.
func TestPlanKeyConeSensitivity(t *testing.T) {
	repo := paperex.Repository()
	plan := network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}
	base := verify.PlanKey(repo, paperex.Policies(), paperex.LocC1, paperex.C1(), plan, nil)

	again := verify.PlanKey(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plan, nil)
	if again != base {
		t.Fatal("plan key not deterministic across repository rebuilds")
	}

	// Editing a service the plan binds (in-cone) moves the key.
	edited := network.Repository{}
	for l, e := range repo {
		edited[l] = e
	}
	edited[paperex.LocS3] = hexpr.Cat(hexpr.Act(hexpr.E("extra")), repo[paperex.LocS3])
	moved := verify.PlanKey(edited, paperex.Policies(), paperex.LocC1, paperex.C1(), plan, nil)
	if moved == base {
		t.Fatal("editing the bound service s3 did not move the plan key")
	}

	// Editing a service the plan never reaches (out-of-cone) must not.
	edited2 := network.Repository{}
	for l, e := range repo {
		edited2[l] = e
	}
	edited2[paperex.LocS2] = hexpr.Cat(hexpr.Act(hexpr.E("extra")), repo[paperex.LocS2])
	same := verify.PlanKey(edited2, paperex.Policies(), paperex.LocC1, paperex.C1(), plan, nil)
	if same != base {
		t.Fatal("editing the unbound service s2 moved the plan key (cone too wide)")
	}

	// Capacities of cone locations are part of the key; others are not.
	capped := verify.PlanKey(repo, paperex.Policies(), paperex.LocC1, paperex.C1(), plan,
		map[hexpr.Location]int{paperex.LocS3: 1})
	if capped == base {
		t.Fatal("bounding an in-cone location did not move the plan key")
	}
	outside := verify.PlanKey(repo, paperex.Policies(), paperex.LocC1, paperex.C1(), plan,
		map[hexpr.Location]int{paperex.LocS2: 1})
	if outside != base {
		t.Fatal("bounding an out-of-cone location moved the plan key")
	}
}
