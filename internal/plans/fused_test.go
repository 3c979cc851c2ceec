package plans_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/verify"
)

// assertEquivalent runs the fused engine and the legacy oracle on the
// world and requires identical assessments — plans, verdicts, witnesses,
// traces, even state counts — in identical order, with and without
// pruning. This is the contract of the fused engine: it is an
// optimisation, never a semantic change.
func assertEquivalent(t *testing.T, label string, repo network.Repository,
	table *policy.Table, loc hexpr.Location, client hexpr.Expr) {
	t.Helper()
	for _, prune := range []bool{false, true} {
		assertEquivalentOpts(t, fmt.Sprintf("%s (prune=%v)", label, prune),
			repo, table, loc, client, plans.Options{PruneNonCompliant: prune})
	}
}

// assertEquivalentOpts is assertEquivalent for one set of options; it
// returns the fused engine's assessments.
func assertEquivalentOpts(t *testing.T, label string, repo network.Repository,
	table *policy.Table, loc hexpr.Location, client hexpr.Expr, opts plans.Options) []plans.Assessment {
	t.Helper()
	legacy, legacyErr := plans.AssessAllLegacy(repo, table, loc, client, opts)
	fused, fusedErr := plans.AssessAll(repo, table, loc, client, opts)
	if (legacyErr == nil) != (fusedErr == nil) {
		t.Fatalf("%s: legacy err = %v, fused err = %v", label, legacyErr, fusedErr)
	}
	if legacyErr != nil {
		if legacyErr.Error() != fusedErr.Error() {
			t.Fatalf("%s: legacy err = %q, fused err = %q", label, legacyErr, fusedErr)
		}
		return nil
	}
	if len(legacy) != len(fused) {
		t.Fatalf("%s: legacy %d assessments, fused %d", label, len(legacy), len(fused))
	}
	for i := range legacy {
		if !reflect.DeepEqual(legacy[i], fused[i]) {
			t.Fatalf("%s: assessment %d differs:\nlegacy: %+v\n        %+v\nfused:  %+v\n        %+v",
				label, i, legacy[i], *legacy[i].Report, fused[i], *fused[i].Report)
		}
	}
	return fused
}

// TestFusedEquivalenceDeterministic: the engines agree on the curated
// worlds — the paper's running example (valid, non-compliant, violating
// and cyclic plans), the scaled hotel world, and the chained-brokers
// workload.
func TestFusedEquivalenceDeterministic(t *testing.T) {
	repo := network.Repository(paperex.Repository())
	assertEquivalent(t, "paperex/C1", repo, paperex.Policies(), paperex.LocC1, paperex.C1())
	assertEquivalent(t, "paperex/C2", repo, paperex.Policies(), paperex.LocC2, paperex.C2())

	h := benchgen.Hotels(6)
	assertEquivalent(t, "hotels(6)", h.Repo, h.Table, h.Loc, h.Client)

	c := benchgen.Chained(2, 3)
	assertEquivalent(t, "chained(2,3)", c.Repo, c.Table, c.Loc, c.Client)
	c = benchgen.Chained(3, 2)
	assertEquivalent(t, "chained(3,2)", c.Repo, c.Table, c.Loc, c.Client)
}

// TestFusedEquivalenceSharded extends the equivalence contract to the
// large worlds, Chained(8,2) (256 plans) and Chained(4,3) (81 plans),
// where one sweep shares a union graph across many plans: the fused
// engine must reproduce the legacy engine's assessments byte for byte,
// whatever Workers says — no code reads it, and the sweep runs on the
// calling goroutine. The worlds run pruned only:
// unpruned, every request may bind any of their services and the plan
// space explodes.
func TestFusedEquivalenceSharded(t *testing.T) {
	for _, cfg := range []struct{ depth, fanout int }{{8, 2}, {4, 3}} {
		c := benchgen.Chained(cfg.depth, cfg.fanout)
		label := fmt.Sprintf("chained(%d,%d)", cfg.depth, cfg.fanout)
		sequential := assertEquivalentOpts(t, label+" (workers=1)", c.Repo, c.Table, c.Loc, c.Client,
			plans.Options{PruneNonCompliant: true, Workers: 1})
		var stats plans.FusedStats
		pooled := assertEquivalentOpts(t, label+" (workers=4)", c.Repo, c.Table, c.Loc, c.Client,
			plans.Options{PruneNonCompliant: true, Workers: 4, Stats: &stats})
		if len(pooled) != c.PlanCount {
			t.Fatalf("%s: assessed %d plans, want %d", label, len(pooled), c.PlanCount)
		}
		if stats.StatesExpanded.Load() == 0 {
			t.Fatalf("%s: expanded no states", label)
		}
		if !reflect.DeepEqual(sequential, pooled) {
			t.Fatalf("%s: Workers=4 diverges from Workers=1", label)
		}
	}
}

// worldGen builds small random worlds: services decorated with random
// events, framings and nested session-opens, and a client opening one or
// two requests. Request identifiers are globally unique (Definition 1);
// channels are drawn from a 2-letter alphabet so compliance holds often
// enough to reach the exploration, and the paper's policies make
// violations reachable.
type worldGen struct {
	r       *rand.Rand
	nextReq int
}

func (g *worldGen) req() hexpr.RequestID {
	g.nextReq++
	return hexpr.RequestID(fmt.Sprintf("r%d", g.nextReq))
}

func (g *worldGen) policyID() hexpr.PolicyID {
	switch g.r.Intn(3) {
	case 0:
		return paperex.Phi1().ID()
	case 1:
		return paperex.Phi2().ID()
	}
	return hexpr.NoPolicy
}

func (g *worldGen) event() hexpr.Expr {
	switch g.r.Intn(3) {
	case 0:
		return hexpr.Act(hexpr.E(paperex.EvSgn, hexpr.Sym([]string{"s1", "s2", "s9"}[g.r.Intn(3)])))
	case 1:
		return hexpr.Act(hexpr.E(paperex.EvPrice, hexpr.Int([]int{30, 50, 90}[g.r.Intn(3)])))
	}
	return hexpr.Act(hexpr.E(paperex.EvRating, hexpr.Int([]int{60, 80, 100}[g.r.Intn(3)])))
}

// protocol generates a communication skeleton over channels {a, b}.
func (g *worldGen) protocol(depth int) hexpr.Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		return hexpr.Eps()
	}
	ch := []string{"a", "b"}[g.r.Intn(2)]
	if g.r.Intn(2) == 0 {
		return hexpr.SendThen(ch, g.protocol(depth-1))
	}
	return hexpr.RecvThen(ch, g.protocol(depth-1))
}

// decorate interleaves a protocol with events, framings and (budget
// permitting) nested opens.
func (g *worldGen) decorate(e hexpr.Expr, opens *int, depth int) hexpr.Expr {
	if depth <= 0 {
		return e
	}
	switch g.r.Intn(5) {
	case 0:
		return hexpr.Cat(g.event(), g.decorate(e, opens, depth-1))
	case 1:
		return hexpr.Frame(g.policyID(), g.decorate(e, opens, depth-1))
	case 2:
		if *opens > 0 {
			*opens--
			return hexpr.Cat(
				hexpr.Open(g.req(), g.policyID(), g.protocol(2)),
				g.decorate(e, opens, depth-1),
			)
		}
		return g.decorate(e, opens, depth-1)
	}
	return e
}

// TestFusedEquivalenceRandom is the equivalence property test: on
// randomized repositories the fused engine reproduces the legacy engine's
// assessments exactly, with and without pruning.
func TestFusedEquivalenceRandom(t *testing.T) {
	for seed := 0; seed < randomSeeds(); seed++ {
		repo, client := randomWorld(seed)
		assertEquivalent(t, fmt.Sprintf("seed=%d", seed), repo, paperex.Policies(), "cl", client)
	}
}

// randomSeeds is the number of worlds each random-world test builds.
func randomSeeds() int {
	if testing.Short() {
		return 10
	}
	return 40
}

// randomWorld is seed's world of TestFusedEquivalenceRandom: two to four
// services, between them at most two nested opens, and a client opening
// one or two requests, planned at "cl" against paperex.Policies().
func randomWorld(seed int) (network.Repository, hexpr.Expr) {
	g := &worldGen{r: rand.New(rand.NewSource(int64(seed)))}
	opens := 2
	nLocs := 2 + g.r.Intn(3)
	repo := network.Repository{}
	for i := 0; i < nLocs; i++ {
		svc := g.decorate(g.protocol(3), &opens, 3)
		repo[hexpr.Location(fmt.Sprintf("s%d", i))] = svc
	}
	clientOpens := 1
	client := hexpr.Cat(
		hexpr.Open(g.req(), g.policyID(), g.protocol(3)),
		g.decorate(hexpr.Eps(), &clientOpens, 2),
	)
	return repo, client
}

// TestFusedEquivalenceSharedSessions extends the equivalence property to
// worlds in which several services — and sometimes the client — open one
// request identifier with one identical session, as the alternative
// services of the Chained shape do. The fused engine keeps one policy and
// body per request; it must still reproduce the legacy oracle, with and
// without pruning.
func TestFusedEquivalenceSharedSessions(t *testing.T) {
	for seed := 0; seed < randomSeeds(); seed++ {
		repo, client := sharedSessionWorld(seed)
		assertEquivalent(t, fmt.Sprintf("seed=%d", seed), repo, paperex.Policies(), "cl", client)
	}
}

// sharedSessionWorld is seed's world of TestFusedEquivalenceSharedSessions:
// services, and sometimes the client, open one of two shared sessions.
func sharedSessionWorld(seed int) (network.Repository, hexpr.Expr) {
	g := &worldGen{r: rand.New(rand.NewSource(int64(1000 + seed)))}
	shared := []hexpr.Expr{
		hexpr.Open(g.req(), g.policyID(), g.protocol(2)),
		hexpr.Open(g.req(), g.policyID(), g.protocol(2)),
	}
	opens := 1
	nLocs := 2 + g.r.Intn(3)
	repo := network.Repository{}
	for i := 0; i < nLocs; i++ {
		svc := g.decorate(g.protocol(3), &opens, 2)
		if k := g.r.Intn(3); k < len(shared) {
			svc = hexpr.Cat(g.protocol(1), shared[k], svc)
		}
		repo[hexpr.Location(fmt.Sprintf("s%d", i))] = svc
	}
	client := hexpr.Open(g.req(), g.policyID(), g.protocol(3))
	if g.r.Intn(3) == 0 {
		client = hexpr.Cat(client, shared[g.r.Intn(len(shared))])
	}
	return repo, client
}

// TestSweepsRefuseRequestClash: services a and b both open r9, one to
// reach c and the other d. The world is built in code, so no parser saw
// it; every plan sweep refuses it with an error naming the request and
// both locations instead of judging the family on one of the two bodies.
func TestSweepsRefuseRequestClash(t *testing.T) {
	send := func(ch string) hexpr.Expr { return hexpr.SendThen(ch, hexpr.Eps()) }
	recv := func(ch string) hexpr.Expr { return hexpr.RecvThen(ch, hexpr.Eps()) }
	repo := network.Repository{
		"a": hexpr.Cat(recv("X"), hexpr.Open("r9", hexpr.NoPolicy, send("P")), send("Ka")),
		"b": hexpr.Cat(recv("X"), hexpr.Open("r9", hexpr.NoPolicy, send("Q")), send("Kb")),
		"c": recv("P"),
		"d": recv("Q"),
	}
	client := hexpr.Open("r1", hexpr.NoPolicy, hexpr.Cat(send("X"),
		hexpr.Ext(hexpr.B(hexpr.In("Ka"), hexpr.Eps()), hexpr.B(hexpr.In("Kb"), hexpr.Eps()))))
	table := policy.NewTable()
	refused := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, plans.ErrRequestClash) {
			t.Fatalf("%s: err = %v, want the refusal of r9", label, err)
		}
		for _, name := range []string{"request r9 ", "at a", "at b"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("%s: %q does not name %q", label, err, name)
			}
		}
	}
	for _, prune := range []bool{true, false} {
		opts := plans.Options{PruneNonCompliant: prune}
		label := fmt.Sprintf("prune=%v", prune)
		as, err := plans.AssessAll(repo, table, "cl", client, opts)
		refused(label+" AssessAll", err)
		if as != nil {
			t.Fatalf("%s AssessAll: %d assessments alongside the refusal", label, len(as))
		}
		fam, err := plans.AssessWithFlows(repo, table, "cl", client, opts)
		refused(label+" AssessWithFlows", err)
		if fam != nil {
			t.Fatalf("%s AssessWithFlows: a family alongside the refusal", label)
		}
		err = plans.AssessStream(repo, table, "cl", client, opts, func(a plans.Assessment) error {
			t.Fatalf("%s AssessStream: yielded %s", label, a)
			return nil
		})
		refused(label+" AssessStream", err)
		_, _, err = plans.SweepKeys(repo, table, "cl", client, opts)
		refused(label+" SweepKeys", err)
	}
}

// TestAssessStreamDeterministicOrder: the stream's enumeration order is
// reproducible.
func TestAssessStreamDeterministicOrder(t *testing.T) {
	w := benchgen.Chained(3, 3)
	run := func() []string {
		var keys []string
		err := plans.AssessStream(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true},
			func(a plans.Assessment) error {
				keys = append(keys, a.Plan.Key())
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	first := run()
	if len(first) != w.PlanCount {
		t.Fatalf("streamed %d assessments, want %d", len(first), w.PlanCount)
	}
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("stream order changed between runs:\n%v\n%v", first, again)
		}
	}
}

// TestAssessStreamEarlyStop: a yield error stops the stream and surfaces
// unchanged.
func TestAssessStreamEarlyStop(t *testing.T) {
	w := benchgen.Chained(2, 3)
	sentinel := errors.New("enough")
	seen := 0
	err := plans.AssessStream(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true},
		func(plans.Assessment) error {
			seen++
			if seen == 2 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if seen != 2 {
		t.Fatalf("yield ran %d times after stop", seen)
	}
}

// TestFusedStats: the counters report the sharing the engine achieves —
// on Chained every state is expanded once however many plans visit it, and
// replays cover the plans' explorations.
func TestFusedStats(t *testing.T) {
	w := benchgen.Chained(2, 3)
	var stats plans.FusedStats
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(stats.PlansAssessed.Load()); got != len(as) {
		t.Errorf("PlansAssessed = %d, want %d", got, len(as))
	}
	if stats.StatesExpanded.Load() == 0 || stats.EdgesBuilt.Load() == 0 || stats.ReplayStates.Load() == 0 {
		t.Errorf("empty work counters: states=%d edges=%d replay=%d",
			stats.StatesExpanded.Load(), stats.EdgesBuilt.Load(), stats.ReplayStates.Load())
	}
	var sumStates uint64
	for _, a := range as {
		sumStates += uint64(a.Report.States)
	}
	if stats.ReplayStates.Load() != sumStates {
		t.Errorf("ReplayStates = %d, want the summed per-plan state counts %d",
			stats.ReplayStates.Load(), sumStates)
	}
	if stats.StatesExpanded.Load() >= stats.ReplayStates.Load() {
		t.Errorf("no sharing: expanded %d states for %d replayed visits",
			stats.StatesExpanded.Load(), stats.ReplayStates.Load())
	}
}

// TestFusedMaxPlansParity: both engines fail the MaxPlans bound with the
// same error.
func TestFusedMaxPlansParity(t *testing.T) {
	w := benchgen.Chained(2, 3)
	for _, engine := range []struct {
		name   string
		assess assessFunc
	}{
		{"legacy", plans.AssessAllLegacy},
		{"fused", plans.AssessAll},
	} {
		_, err := engine.assess(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true, MaxPlans: 4})
		if err == nil || err.Error() != "plans: more than 4 complete plans" {
			t.Fatalf("engine %s: err = %v", engine.name, err)
		}
	}
}

// assessFunc is the signature AssessAll and the legacy oracle share.
type assessFunc func(network.Repository, *policy.Table, hexpr.Location, hexpr.Expr,
	plans.Options) ([]plans.Assessment, error)

// policyTableForRandom keeps the import of policy used even if the random
// generator evolves.
var _ *policy.Table = paperex.Policies()

// TestFusedReplayMemoCollapsesFailures: when a shared failing prefix dooms
// an exponential family of plans, the fused engine replays once and
// recovers the rest from the decision memo.
func TestFusedReplayMemoCollapsesFailures(t *testing.T) {
	// The client violates φ₂ right after its first open: whatever the
	// remaining bindings, the exploration fails at the same prefix. The
	// chained tail keeps an exponential family of suffix bindings alive.
	w := benchgen.Chained(3, 3)
	client := hexpr.Frame(paperex.Phi2().ID(), hexpr.Cat(
		hexpr.Act(hexpr.E(paperex.EvSgn, hexpr.Sym("s1"))), // blacklisted by φ₂
		w.Client,
	))
	table := paperex.Policies()
	var stats plans.FusedStats
	as, err := plans.AssessAll(w.Repo, table, w.Loc, client,
		plans.Options{PruneNonCompliant: true, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != w.PlanCount {
		t.Fatalf("%d assessments, want %d", len(as), w.PlanCount)
	}
	for _, a := range as {
		if a.Report.Verdict != verify.SecurityViolation {
			t.Fatalf("plan %s: verdict %s, want security-violation", a.Plan, a.Report)
		}
	}
	if want := uint64(len(as) - 1); stats.ReplayMemoHits.Load() != want {
		t.Errorf("ReplayMemoHits = %d, want %d (one replay serves the family)",
			stats.ReplayMemoHits.Load(), want)
	}
	// And the memoised reports still agree with the legacy engine.
	assertEquivalent(t, "violating prefix", w.Repo, table, w.Loc, client)
}
