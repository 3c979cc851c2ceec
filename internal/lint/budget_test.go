package lint

import (
	"context"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/faultinject"
)

// TestLintBudgetExhaustionReported: cutting the semantic suite short
// surfaces as a SUSC016 "analysis stopped" diagnostic instead of silently
// truncated findings — a lint run that did not finish must say so.
func TestLintBudgetExhaustionReported(t *testing.T) {
	src, _ := semanticSource(t, "susc011_violable.susc")
	b := budget.New(context.Background(), budget.Limits{MaxStates: 2})
	diags := Source(src, Options{Analyzers: AllAnalyzers(), Budget: b})
	found := false
	for _, d := range diags {
		if d.Code == CodeInternalError && strings.Contains(d.Message, "analysis stopped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no SUSC016 cutoff diagnostic in %v", diags)
	}
	if b.Exhausted() == nil {
		t.Fatal("the budget must be exhausted")
	}
}

// TestLintBudgetUnlimitedMatches: a roomy budget changes nothing — the
// diagnostics are identical to the unbudgeted run.
func TestLintBudgetUnlimitedMatches(t *testing.T) {
	src, plain := semanticSource(t, "susc011_violable.susc")
	b := budget.New(context.Background(), budget.Limits{MaxStates: 1 << 30})
	budgeted := Source(src, Options{Analyzers: AllAnalyzers(), Budget: b})
	if len(plain) != len(budgeted) {
		t.Fatalf("budgeted run found %d diagnostics, plain %d", len(budgeted), len(plain))
	}
	for i := range plain {
		if plain[i].Code != budgeted[i].Code || plain[i].Message != budgeted[i].Message {
			t.Fatalf("diagnostic %d differs: %v vs %v", i, plain[i], budgeted[i])
		}
	}
}

// TestLintAnalyzerPanicIsolated: a panicking analyzer is absorbed — its
// own findings are dropped, the failure is reported as SUSC016 naming the
// analyzer, and every other analyzer still reports normally.
func TestLintAnalyzerPanicIsolated(t *testing.T) {
	src, plain := semanticSource(t, "susc011_violable.susc")
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.LintAnalyzer, "violable", "injected"))
	defer restore()
	diags := Source(src, Options{Analyzers: AllAnalyzers()})

	var failure *Diagnostic
	for i, d := range diags {
		switch {
		case d.Code == CodeInternalError:
			failure = &diags[i]
		case d.Code == "SUSC011":
			t.Fatalf("the panicked analyzer's findings must be dropped, got %v", d)
		}
	}
	if failure == nil {
		t.Fatalf("no SUSC016 failure diagnostic in %v", diags)
	}
	if !strings.Contains(failure.Message, "violable") || !strings.Contains(failure.Message, "failed") {
		t.Fatalf("failure message = %q, want the analyzer name and 'failed'", failure.Message)
	}

	// Every non-SUSC011 finding of the clean run survives.
	want := map[string]int{}
	for _, d := range plain {
		if d.Code != "SUSC011" {
			want[d.Code]++
		}
	}
	got := map[string]int{}
	for _, d := range diags {
		if d.Code != CodeInternalError {
			got[d.Code]++
		}
	}
	for code, n := range want {
		if got[code] != n {
			t.Fatalf("code %s: %d findings after the panic, want %d", code, got[code], n)
		}
	}
}

// sweepVictim is one of Chained(4,2)'s 16 plans, all valid.
const sweepVictim = "{r1>s1_0,r2>s2_1,r3>s3_0,r4>s4_0}"

// sweepPanics fails unless diags hold exactly one SUSC016 finding, and it
// names the poisoned plan.
func sweepPanics(t *testing.T, diags []Diagnostic) {
	t.Helper()
	var failures []Diagnostic
	for _, d := range diags {
		if d.Code == CodeInternalError {
			failures = append(failures, d)
		}
	}
	if len(failures) != 1 || !strings.Contains(failures[0].Message, "plan "+sweepVictim) {
		t.Fatalf("want one SUSC016 naming plan %s, got %v", sweepVictim, failures)
	}
}

// TestAuditSweepPanicReported: a worker panic isolated in the audit's plan
// sweep is reported as SUSC016 naming the plan, and the surviving plans
// are still audited; the poisoned one is Unknown, so the audit is
// incomplete.
func TestAuditSweepPanicReported(t *testing.T) {
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.PlansWorker, sweepVictim, "injected"))
	defer restore()
	res := AuditSource(benchgen.ChainedSource(4, 2), Options{})
	sweepPanics(t, res.Diagnostics)
	if len(res.Coverage) != 1 {
		t.Fatalf("%d coverage records, want 1", len(res.Coverage))
	}
	cc := res.Coverage[0]
	if cc.Skipped != "" || cc.ValidPlans != 15 || cc.Audited != 15 {
		t.Fatalf("coverage: %d valid, %d audited, skipped %q; want 15, 15, none",
			cc.ValidPlans, cc.Audited, cc.Skipped)
	}
	if res.Complete {
		t.Fatal("an audit with a poisoned plan must be incomplete")
	}
}

// TestUnrealizableSweepPanicReported: the same panic in SUSC013's plan
// sweep is reported as SUSC016 naming the plan, not passed over.
func TestUnrealizableSweepPanicReported(t *testing.T) {
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.PlansWorker, sweepVictim, "injected"))
	defer restore()
	diags := Source(benchgen.ChainedSource(4, 2), Options{Analyzers: AllAnalyzers()})
	sweepPanics(t, diags)
	if len(diags) != 1 {
		t.Fatalf("want only the SUSC016 finding, got %v", diags)
	}
}
