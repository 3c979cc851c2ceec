package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestRunNegativeBudgetExit1: a negative budget bound is refused before
// the run, with exit 1 and an error naming the flag, where it used to
// mean unlimited; zero still means unlimited. serve refuses a negative
// ceiling the same way.
func TestRunNegativeBudgetExit1(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"plans", hotelFile, "-client", "c1", "-max-states", "-5"}, "-max-states"},
		{[]string{"plans", hotelFile, "-client", "c1", "-max-edges", "-1"}, "-max-edges"},
		{[]string{"plans", hotelFile, "-client", "c1", "-timeout", "-1s"}, "-timeout"},
		{[]string{"lint", hotelFile, "-max-states", "-1"}, "-max-states"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-max-states", "-5"}, "-max-states"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-max-edges", "-1"}, "-max-edges"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-max-timeout", "-1s"}, "-max-timeout"},
	} {
		out, err := capture(t, func() error { return run(c.args) })
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") || exitCode(err) != 1 {
			t.Errorf("%v: err = %v, want exit 1 naming %s", c.args, err, c.flag)
		}
		if out != "" {
			t.Errorf("%v: printed %q before refusing", c.args, out)
		}
	}
	if _, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c1", "-max-states", "0", "-max-edges", "0", "-timeout", "0s"})
	}); err != nil {
		t.Errorf("zero budgets: %v, want unlimited", err)
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

// TestRunPlansCacheBudgetCut: a deadline cut in a store-backed plans run
// that lands after enumeration degrades like an uncached one — exit 3,
// and every plan of Chained(12,2) printed, text and JSON, with its 12
// bindings and a verdict. The sweep enumerates once and keys the plans it
// enumerated, so a deadline passing while it keys or replays cannot leave
// plans unassessed. (A cut during enumeration returns the plans found so
// far, by design.) The deadline leaves the enumeration a second on any
// machine, and a 4 ms delay per replayed state makes the replays outlast
// it: the 500 states the cap allows would take at least 2 s, so the
// deadline, not the cap, is what cuts.
func TestRunPlansCacheBudgetCut(t *testing.T) {
	const spec = "../../internal/benchgen/testdata/chained-12-2.susc"
	const plans, bindings = 4096, 12
	restore := faultinject.Set(faultinject.DelayAt(faultinject.FusedReplay, 4*time.Millisecond))
	defer restore()
	for _, form := range []string{"text", "json"} {
		args := []string{"plans", spec, "-client", "cl", "-cache", t.TempDir(),
			"-timeout", "1s", "-max-states", "500"}
		if form == "json" {
			args = append(args, "-json")
		}
		out, err := capture(t, func() error { return run(args) })
		if code := exitCode(err); code != 3 {
			t.Fatalf("%s: exit %d (%v), want 3", form, code, err)
		}
		var ee *budget.ExhaustedError
		if !errors.As(err, &ee) || ee.Reason != budget.DeadlineExceeded {
			t.Fatalf("%s: err = %v, want the deadline's *budget.ExhaustedError", form, err)
		}
		if form == "text" {
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			if len(lines) != plans+1 || !strings.HasPrefix(lines[plans], fmt.Sprintf("%d plan(s), ", plans)) {
				t.Fatalf("text: %d lines, want %d plans and the summary", len(lines), plans)
			}
			for _, l := range lines[:plans] {
				plan, verdict, _ := strings.Cut(l, "} ")
				if strings.Count(plan, ">") != bindings || strings.TrimSpace(verdict) == "" {
					t.Fatalf("text: malformed record %q", l)
				}
			}
			continue
		}
		var entries []struct {
			Plan   map[string]string
			Report *struct{ Verdict string }
		}
		if err := json.Unmarshal([]byte(out), &entries); err != nil {
			t.Fatalf("json: %v", err)
		}
		if len(entries) != plans {
			t.Fatalf("json: %d records, want %d", len(entries), plans)
		}
		for _, e := range entries {
			if len(e.Plan) != bindings || e.Report == nil || e.Report.Verdict == "" {
				t.Fatalf("json: malformed record %+v", e)
			}
		}
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
