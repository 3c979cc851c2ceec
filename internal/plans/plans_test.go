package plans_test

import (
	"testing"

	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/plans"
	"susc/internal/verify"
)

// TestSynthesizeC1 (experiment E5): the only valid plan for C1 is
// π₁ = {r1↦br, r3↦s3}.
func TestSynthesizeC1(t *testing.T) {
	for _, prune := range []bool{false, true} {
		got, err := plans.Synthesize(paperex.Repository(), paperex.Policies(),
			paperex.LocC1, paperex.C1(), plans.Options{PruneNonCompliant: prune})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("prune=%v: %d valid plans, want 1: %v", prune, len(got), got)
		}
		if got[0].Key() != "{r1>br,r3>s3}" {
			t.Errorf("prune=%v: plan = %s, want {r1>br,r3>s3}", prune, got[0])
		}
	}
}

// TestSynthesizeC2: the only valid plan for C2 is {r2↦br, r3↦s4}.
func TestSynthesizeC2(t *testing.T) {
	got, err := plans.Synthesize(paperex.Repository(), paperex.Policies(),
		paperex.LocC2, paperex.C2(), plans.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key() != "{r2>br,r3>s4}" {
		t.Fatalf("plans = %v, want exactly {r2>br,r3>s4}", got)
	}
}

func TestAssessAllClassifies(t *testing.T) {
	as, err := plans.AssessAll(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plans.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// r1 has 5 candidate bindings; only r1→br discovers r3 with 5 more:
	// 4 one-request plans (r1→s1..s4) + 5 two-request plans (r1→br, r3→*).
	if len(as) != 9 {
		t.Fatalf("%d assessments, want 9", len(as))
	}
	byKey := map[string]verify.Verdict{}
	for _, a := range as {
		byKey[a.Plan.Key()] = a.Report.Verdict
	}
	want := map[string]verify.Verdict{
		"{r1>br,r3>br}": verify.UnboundedNesting, // br calling itself is cyclic
		"{r1>br,r3>s1}": verify.SecurityViolation,
		"{r1>br,r3>s2}": verify.NotCompliant,
		"{r1>br,r3>s3}": verify.Valid,
		"{r1>br,r3>s4}": verify.SecurityViolation,
		"{r1>s1}":       verify.NotCompliant,
		"{r1>s2}":       verify.NotCompliant,
		"{r1>s3}":       verify.NotCompliant,
		"{r1>s4}":       verify.NotCompliant,
	}
	for k, v := range want {
		if byKey[k] != v {
			t.Errorf("plan %s: %s, want %s", k, byKey[k], v)
		}
	}
}

func TestPruningPreservesValidSet(t *testing.T) {
	full, err := plans.Synthesize(paperex.Repository(), paperex.Policies(),
		paperex.LocC2, paperex.C2(), plans.Options{PruneNonCompliant: false})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := plans.Synthesize(paperex.Repository(), paperex.Policies(),
		paperex.LocC2, paperex.C2(), plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(pruned) {
		t.Fatalf("pruning changed the valid set: %v vs %v", full, pruned)
	}
	for i := range full {
		if full[i].Key() != pruned[i].Key() {
			t.Errorf("plan %d differs: %s vs %s", i, full[i], pruned[i])
		}
	}
}

func TestMaxPlansBound(t *testing.T) {
	_, err := plans.AssessAll(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plans.Options{MaxPlans: 2})
	if err == nil {
		t.Fatal("expected the MaxPlans bound to trip")
	}
}

func TestSynthesizeNoRequests(t *testing.T) {
	// A client with no requests has exactly one plan: the empty one.
	client := hexpr.Cat(hexpr.Act(hexpr.E("a")), hexpr.Act(hexpr.E("b")))
	got, err := plans.Synthesize(paperex.Repository(), paperex.Policies(),
		"cl", client, plans.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("plans = %v, want one empty plan", got)
	}
}

func TestSynthesizeCyclicServices(t *testing.T) {
	// Service A calls B (request rb), B calls A back (request ra): the
	// enumeration terminates (bound requests are not re-expanded) and the
	// cyclic closure is classified as unbounded nesting, hence not valid.
	svcA := hexpr.RecvThen("pingA",
		hexpr.Open("rb", hexpr.NoPolicy, hexpr.SendThen("pingB", hexpr.Eps())))
	svcB := hexpr.RecvThen("pingB",
		hexpr.Open("ra", hexpr.NoPolicy, hexpr.SendThen("pingA", hexpr.Eps())))
	repo := network.Repository{"A": svcA, "B": svcB}
	client := hexpr.Open("r0", hexpr.NoPolicy, hexpr.SendThen("pingA", hexpr.Eps()))
	as, err := plans.AssessAll(repo, paperex.Policies(), "cl", client,
		plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range as {
		if p := a.Plan.Map(); p["r0"] == "A" && p["rb"] == "B" && p["ra"] == "A" {
			found = true
			if a.Report.Verdict != verify.UnboundedNesting {
				t.Errorf("cyclic closure verdict = %s, want unbounded-nesting", a.Report)
			}
		}
	}
	if !found {
		t.Errorf("expected the cyclic closure plan among %v", as)
	}
	valid, err := plans.Synthesize(repo, paperex.Policies(), "cl", client,
		plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range valid {
		if c := verify.CallCycle(repo, client, p); c != nil {
			t.Errorf("valid plan %s has a call cycle %v", p, c)
		}
	}
}

func TestAssessmentString(t *testing.T) {
	as, err := plans.AssessAll(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plans.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 || as[0].String() == "" {
		t.Error("assessments must render")
	}
}

// TestParallelAssessmentMatchesSequential: the legacy oracle, given
// Workers: 4 (which no code reads: it checks one plan after another on
// the calling goroutine), returns the same assessments as the fused
// sweep.
func TestParallelAssessmentMatchesSequential(t *testing.T) {
	seq, err := plans.AssessAll(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plans.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := plans.AssessAllLegacy(paperex.Repository(), paperex.Policies(),
		paperex.LocC1, paperex.C1(), plans.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Plan.Key() != par[i].Plan.Key() ||
			seq[i].Report.Verdict != par[i].Report.Verdict {
			t.Errorf("assessment %d differs: %s vs %s", i, seq[i], par[i])
		}
	}
}
