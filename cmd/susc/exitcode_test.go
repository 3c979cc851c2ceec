package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/faultinject"
)

// TestExitCodeMapping pins the exit-code protocol: findings are 1,
// isolated internal errors 2, budget exhaustion or interruption 3.
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("plan is not valid"), 1},
		{&budget.InternalError{Unit: "plan k", Value: "boom"}, 2},
		{fmt.Errorf("wrapped: %w", &budget.InternalError{Unit: "u", Value: 1}), 2},
		{&budget.ExhaustedError{Reason: budget.StateLimit}, 3},
		{&budget.ExhaustedError{Reason: budget.Cancelled}, 3},
		{fmt.Errorf("wrapped: %w", &budget.ExhaustedError{Reason: budget.DeadlineExceeded}), 3},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
	// Internal error outranks exhaustion when an error is both (wrapped
	// chains put the internal error first).
	both := fmt.Errorf("%w after %w",
		&budget.InternalError{Unit: "u", Value: 1},
		&budget.ExhaustedError{Reason: budget.StateLimit})
	if got := exitCode(both); got != 2 {
		t.Errorf("internal+exhausted = %d, want 2", got)
	}
}

// TestRunBudgetExhaustedExit3: a tiny -max-states run still prints the
// partial report and returns the typed exhaustion error (exit 3).
func TestRunBudgetExhaustedExit3(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"check", hotelFile, "-client", "c1", "-max-states", "3"})
	})
	var ee *budget.ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *budget.ExhaustedError", err)
	}
	if !strings.Contains(out, "unknown") {
		t.Fatalf("partial report must still print, got %q", out)
	}
}

// TestRunPlansBudgetExhaustedExit3: same protocol for plan synthesis —
// the flushed partial assessments precede the typed error.
func TestRunPlansBudgetExhaustedExit3(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c1", "-max-states", "5"})
	})
	var ee *budget.ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *budget.ExhaustedError", err)
	}
	if !strings.Contains(out, "plan(s)") {
		t.Fatalf("partial summary must still print, got %q", out)
	}
}

// TestRunInternalErrorExit2: an injected worker panic surfaces as the
// typed internal error (exit 2) — after the surviving plans printed.
func TestRunInternalErrorExit2(t *testing.T) {
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.PlansWorker, "", "injected"))
	defer restore()
	out, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c1"})
	})
	var ie *budget.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *budget.InternalError", err)
	}
	if ie.Unit == "" {
		t.Fatal("the internal error must carry the repro unit")
	}
	if !strings.Contains(out, "plan(s)") {
		t.Fatalf("surviving assessments must still print, got %q", out)
	}
}

// TestRunSweepPanicExit2: a worker panic isolated in a lint plan sweep —
// the audit's, and SUSC013's under explain — is reported and exits 2,
// like plans.
func TestRunSweepPanicExit2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chained.susc")
	if err := os.WriteFile(path, []byte(benchgen.ChainedSource(4, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	const victim = "{r1>s1_0,r2>s2_1,r3>s3_0,r4>s4_0}"
	for _, cmd := range []string{"audit", "explain"} {
		restore := faultinject.Set(faultinject.PanicOnce(faultinject.PlansWorker, victim, "injected"))
		out, err := capture(t, func() error { return run([]string{cmd, path}) })
		restore()
		var ie *budget.InternalError
		if !errors.As(err, &ie) || !strings.Contains(ie.Error(), victim) {
			t.Fatalf("%s: err = %v, want *budget.InternalError naming plan %s", cmd, err, victim)
		}
		if cmd == "audit" && !strings.Contains(out, "15 valid plan(s), 15 audited") {
			t.Fatalf("audit: the surviving plans must still be audited, got %q", out)
		}
	}
}

// TestRunCheckAllBudgetExhaustedExit3: the network checker degrades the
// same way.
func TestRunCheckAllBudgetExhaustedExit3(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"checkall", hotelFile, "-max-states", "3"})
	})
	var ee *budget.ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *budget.ExhaustedError", err)
	}
	if !strings.Contains(out, "unknown") {
		t.Fatalf("partial network report must still print, got %q", out)
	}
}

const auditFixtures = "../../internal/lint/testdata/audit"

// TestRunAuditFindingsExit1: warning-level audit findings make `susc
// audit` return a plain error (exit 1), with the finding and its
// coverage table on stdout.
func TestRunAuditFindingsExit1(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"audit", auditFixtures + "/susc017_unguarded.susc"})
	})
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("err = %v (exit %d), want findings error (exit 1)", err, exitCode(err))
	}
	if !strings.Contains(out, "SUSC017") || !strings.Contains(out, "guarded by") {
		t.Fatalf("finding and coverage table must print, got %q", out)
	}
}

// TestRunAuditInfoFindingsExit0: info-level findings (SUSC020) report
// but do not fail the run.
func TestRunAuditInfoFindingsExit0(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"audit", auditFixtures + "/susc020_deadpolicy.susc"})
	})
	if err != nil {
		t.Fatalf("err = %v, want success (info findings only)", err)
	}
	if !strings.Contains(out, "SUSC020") {
		t.Fatalf("info finding must still print, got %q", out)
	}
}

// TestRunAuditBudgetExhaustedExit3: a starved audit reports itself
// incomplete and returns the typed exhaustion error (exit 3).
func TestRunAuditBudgetExhaustedExit3(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"audit", hotelFile, "-max-states", "3"})
	})
	var ee *budget.ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want *budget.ExhaustedError", err)
	}
	if !strings.Contains(out, "audit incomplete") {
		t.Fatalf("the partial audit must announce incompleteness, got %q", out)
	}
}

// TestRunCheckAllAuditFindingsExit1: checkall folds the declared-plan
// audit into its gate — a network that verifies fine but carries an
// unguarded critical event exits 1.
func TestRunCheckAllAuditFindingsExit1(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"checkall", auditFixtures + "/susc017_unguarded.susc"})
	})
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("err = %v (exit %d), want audit-findings error (exit 1)", err, exitCode(err))
	}
	if !strings.Contains(err.Error(), "audit") {
		t.Fatalf("the error must name the audit, got %v", err)
	}
	if !strings.Contains(out, "valid") {
		t.Fatalf("the verification verdicts must still print, got %q", out)
	}
}

// TestRunCheckAllAuditCleanExit0: the audit gate is invisible on a
// network whose critical events are guarded under the declared plans.
func TestRunCheckAllAuditCleanExit0(t *testing.T) {
	for _, file := range []string{auditFixtures + "/clean.susc", hotelFile} {
		if _, err := capture(t, func() error {
			return run([]string{"checkall", file})
		}); err != nil {
			t.Fatalf("checkall %s = %v, want success", file, err)
		}
	}
}

// TestRunRoomyBudgetIsInvisible: generous limits change nothing — the
// commands succeed exactly as without flags.
func TestRunRoomyBudgetIsInvisible(t *testing.T) {
	for _, args := range [][]string{
		{"check", hotelFile, "-client", "c1", "-max-states", "100000", "-timeout", "1m"},
		{"checkall", hotelFile, "-max-states", "100000"},
		{"plans", hotelFile, "-client", "c1", "-max-states", "100000"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err != nil {
			t.Fatalf("run(%v) = %v, want success", args, err)
		}
	}
}
