package verify_test

import (
	"math/rand"
	"testing"

	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/verify"
)

func check(t *testing.T, client hexpr.Expr, loc hexpr.Location, plan network.Plan) *verify.Report {
	t.Helper()
	r, err := verify.CheckPlan(paperex.Repository(), paperex.Policies(), loc, client, plan)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSect2Plans reproduces the plan-validity claims of §2 (experiment E5):
// π₁ = {1↦br, 3↦s3} is valid for C1; binding request 3 to S2 is invalid
// because of compliance (Del); binding request 3 to S3 for C2 is invalid
// because of security (S3 blacklisted by φ₂).
func TestSect2Plans(t *testing.T) {
	// π₁: valid
	r := check(t, paperex.C1(), paperex.LocC1, network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3})
	if r.Verdict != verify.Valid {
		t.Fatalf("π₁ should be valid: %s", r)
	}

	// π₂: C2 → broker → S2: S2 may send Del, unmatched by the broker
	r = check(t, paperex.C2(), paperex.LocC2, network.Plan{"r2": paperex.LocBr, "r3": paperex.LocS2})
	if r.Verdict != verify.NotCompliant {
		t.Fatalf("π₂ should be non-compliant: %s", r)
	}
	if r.Request != "r3" {
		t.Errorf("failing request = %s, want r3", r.Request)
	}

	// π₃: C2 → broker → S3: S3 is blacklisted by φ₂
	r = check(t, paperex.C2(), paperex.LocC2, network.Plan{"r2": paperex.LocBr, "r3": paperex.LocS3})
	if r.Verdict != verify.SecurityViolation {
		t.Fatalf("π₃ should violate security: %s", r)
	}
	if r.Policy != paperex.Phi2().ID() {
		t.Errorf("violated policy = %s, want φ₂", r.Policy)
	}
}

// TestAllPlansForC1 classifies every binding of r3 for client C1:
// S1 violates φ₁ (blacklist), S2 deadlocks (Del), S3 is valid, S4 violates
// φ₁ (price/rating thresholds).
func TestAllPlansForC1(t *testing.T) {
	want := map[hexpr.Location]verify.Verdict{
		paperex.LocS1: verify.SecurityViolation,
		paperex.LocS2: verify.NotCompliant,
		paperex.LocS3: verify.Valid,
		paperex.LocS4: verify.SecurityViolation,
	}
	for loc, verdict := range want {
		r := check(t, paperex.C1(), paperex.LocC1, network.Plan{"r1": paperex.LocBr, "r3": loc})
		if r.Verdict != verdict {
			t.Errorf("C1 with r3→%s: %s, want %s", loc, r, verdict)
		}
	}
}

// TestAllPlansForC2: S1 and S3 violate φ₂, S2 deadlocks, S4 is valid.
func TestAllPlansForC2(t *testing.T) {
	want := map[hexpr.Location]verify.Verdict{
		paperex.LocS1: verify.SecurityViolation,
		paperex.LocS2: verify.NotCompliant,
		paperex.LocS3: verify.SecurityViolation,
		paperex.LocS4: verify.Valid,
	}
	for loc, verdict := range want {
		r := check(t, paperex.C2(), paperex.LocC2, network.Plan{"r2": paperex.LocBr, "r3": loc})
		if r.Verdict != verdict {
			t.Errorf("C2 with r3→%s: %s, want %s", loc, r, verdict)
		}
	}
}

func TestUnboundRequestIsDeadlock(t *testing.T) {
	r := check(t, paperex.C1(), paperex.LocC1, network.Plan{"r1": paperex.LocBr})
	if r.Verdict != verify.CommunicationDeadlock {
		t.Fatalf("unbound r3: %s", r)
	}
	r = check(t, paperex.C1(), paperex.LocC1, network.Plan{"r1": "ghost", "r3": paperex.LocS3})
	if r.Verdict != verify.CommunicationDeadlock {
		t.Fatalf("dangling location: %s", r)
	}
}

// TestValidPlanRunsCleanly (the paper's headline guarantee): every run of
// a verified plan completes without the monitor ever pruning a move.
func TestValidPlanRunsCleanly(t *testing.T) {
	plan := network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}
	ok, err := verify.ValidPlan(paperex.Repository(), paperex.Policies(), paperex.LocC1, paperex.C1(), plan)
	if err != nil || !ok {
		t.Fatalf("plan should be valid: %v %v", ok, err)
	}
	for seed := int64(0); seed < 50; seed++ {
		cfg := network.NewConfig(paperex.Repository(), paperex.Policies(),
			network.Client{Loc: paperex.LocC1, Expr: paperex.C1(), Plan: plan})
		res := cfg.Run(network.RunOptions{Rand: rand.New(rand.NewSource(seed)), Monitored: false})
		if res.Status != network.Completed {
			t.Fatalf("seed %d: unmonitored run of a valid plan must complete: %s", seed, res)
		}
	}
}

// TestInvalidVerdictsAreWitnessed: the counterexample trace of a security
// report replays to the violation.
func TestSecurityWitnessReplays(t *testing.T) {
	plan := network.Plan{"r2": paperex.LocBr, "r3": paperex.LocS3}
	r := check(t, paperex.C2(), paperex.LocC2, plan)
	if r.Verdict != verify.SecurityViolation || len(r.Trace) == 0 {
		t.Fatalf("report = %s", r)
	}
	// All but the last step replay under the monitor; the full trace
	// replays only unmonitored.
	cfg := network.NewConfig(paperex.Repository(), paperex.Policies(),
		network.Client{Loc: paperex.LocC2, Expr: paperex.C2(), Plan: plan})
	if at := cfg.Replay(r.Trace[:len(r.Trace)-1], true); at != -1 {
		t.Errorf("witness prefix should replay monitored, failed at %d", at)
	}
	cfg2 := network.NewConfig(paperex.Repository(), paperex.Policies(),
		network.Client{Loc: paperex.LocC2, Expr: paperex.C2(), Plan: plan})
	if at := cfg2.Replay(r.Trace, false); at != -1 {
		t.Errorf("full witness should replay unmonitored, failed at %d", at)
	}
}

func TestCheckClientsVector(t *testing.T) {
	clients := []verify.ClientSpec{
		{Loc: paperex.LocC1, Client: paperex.C1(), Plan: network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}},
		{Loc: paperex.LocC2, Client: paperex.C2(), Plan: network.Plan{"r2": paperex.LocBr, "r3": paperex.LocS4}},
	}
	reports, all, err := verify.CheckClients(paperex.Repository(), paperex.Policies(), clients)
	if err != nil {
		t.Fatal(err)
	}
	if !all || len(reports) != 2 {
		t.Fatalf("both plans valid: all=%v reports=%v", all, reports)
	}
	// Break the second plan.
	clients[1].Plan = network.Plan{"r2": paperex.LocBr, "r3": paperex.LocS2}
	reports, all, err = verify.CheckClients(paperex.Repository(), paperex.Policies(), clients)
	if err != nil {
		t.Fatal(err)
	}
	if all {
		t.Error("vector with an invalid plan must not be all-valid")
	}
	if reports[0].Verdict != verify.Valid || reports[1].Verdict != verify.NotCompliant {
		t.Errorf("reports = %v, %v", reports[0], reports[1])
	}
}

func TestRecursiveClientTerminatesExploration(t *testing.T) {
	// A client whose session body loops forever against a recursive echo
	// service: the exploration must converge on the finite abstract state
	// space.
	body := hexpr.Mu("h", hexpr.IntCh(
		hexpr.B(hexpr.Out("req"), hexpr.Ext(
			hexpr.B(hexpr.In("done"), hexpr.Eps()),
			hexpr.B(hexpr.In("more"), hexpr.V("h")),
		)),
	))
	srv := hexpr.Mu("k", hexpr.RecvThen("req", hexpr.IntCh(
		hexpr.B(hexpr.Out("done"), hexpr.Eps()),
		hexpr.B(hexpr.Out("more"), hexpr.V("k")),
	)))
	repo := network.Repository{"echo": srv}
	cl := hexpr.Open("r1", hexpr.NoPolicy, body)
	r, err := verify.CheckPlan(repo, paperex.Policies(), "cl", cl, network.Plan{"r1": "echo"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != verify.Valid {
		t.Fatalf("recursive session should be valid: %s", r)
	}
	if r.States == 0 {
		t.Error("expected some states explored")
	}
}

func TestVerdictStrings(t *testing.T) {
	if verify.Valid.String() != "valid" ||
		verify.SecurityViolation.String() != "security-violation" ||
		verify.CommunicationDeadlock.String() != "communication-deadlock" {
		t.Error("verdict strings wrong")
	}
}

func TestUnboundRequests(t *testing.T) {
	plan := network.Plan{"r1": paperex.LocBr} // r3 discovered via the broker, unbound
	unbound := verify.UnboundRequests(paperex.Repository(), paperex.C1(), plan)
	if len(unbound) != 1 || unbound[0] != "r3" {
		t.Errorf("unbound = %v, want [r3]", unbound)
	}
	full := network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}
	unbound = verify.UnboundRequests(paperex.Repository(), paperex.C1(), full)
	if len(unbound) != 0 {
		t.Errorf("unbound = %v, want none", unbound)
	}
	// a location missing from the repository is also unbound
	dangling := network.Plan{"r1": "ghost", "r3": paperex.LocS3}
	unbound = verify.UnboundRequests(paperex.Repository(), paperex.C1(), dangling)
	if len(unbound) != 1 || unbound[0] != "r1" {
		t.Errorf("unbound = %v, want [r1]", unbound)
	}
}

func TestPlannedRequestsStrings(t *testing.T) {
	reqs := verify.PlannedRequests(paperex.Repository(), paperex.C1(),
		network.Plan{"r1": paperex.LocBr})
	if len(reqs) != 2 {
		t.Fatalf("requests = %v", reqs)
	}
	if reqs[0].String() != "r1 -> br" || reqs[1].String() != "r3 -> (unbound)" {
		t.Errorf("strings = %q, %q", reqs[0], reqs[1])
	}
	if reqs[0].Policy != paperex.Phi1().ID() {
		t.Errorf("r1 policy = %s", reqs[0].Policy)
	}
}
