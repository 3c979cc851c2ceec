package plans_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/verify"
)

// TestFaultInjectionPanicIsolated injects a one-shot panic at each named
// hook of the engines and asserts the isolation contract: the poisoned
// unit surfaces as a typed *budget.InternalError carrying a repro key,
// every sibling plan is still assessed with its true verdict, and the
// process never crashes. Each case runs twice: the legacy oracle with
// Workers 1 and 4 (which it ignores: it checks one plan after another on
// the calling goroutine), the fused engine through AssessAll and through
// AssessStream. Runs under -race in CI, so the recovery paths are also
// checked for races.
func TestFaultInjectionPanicIsolated(t *testing.T) {
	w := benchgen.Chained(3, 2) // 8 plans, all valid
	legacy := func(workers int) assessFunc {
		return func(repo network.Repository, table *policy.Table, loc hexpr.Location,
			client hexpr.Expr, opts plans.Options) ([]plans.Assessment, error) {
			opts.Workers = workers
			return plans.AssessAllLegacy(repo, table, loc, client, opts)
		}
	}
	fused := []assessFunc{plans.AssessAll, streamAll}
	cases := []struct {
		name  string
		point faultinject.Point
		runs  []assessFunc
	}{
		{"legacy-worker", faultinject.PlansWorker, []assessFunc{legacy(1), legacy(4)}},
		{"fused-worker", faultinject.PlansWorker, fused},
		{"fused-expand", faultinject.FusedExpand, fused},
		{"fused-replay", faultinject.FusedReplay, fused},
	}
	for _, tc := range cases {
		for run, assess := range tc.runs {
			t.Run(tc.name, func(t *testing.T) {
				restore := faultinject.Set(faultinject.PanicOnce(tc.point, "", "injected fault"))
				defer restore()
				as, err := assess(w.Repo, w.Table, w.Loc, w.Client, plans.Options{
					PruneNonCompliant: true,
				})
				var ie *budget.InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("run %d: err = %v, want *budget.InternalError", run, err)
				}
				if ie.Unit == "" {
					t.Fatal("internal error must carry the repro unit")
				}
				if ie.Stack == "" {
					t.Fatal("internal error must carry the recovery stack")
				}
				if len(as) != w.PlanCount {
					t.Fatalf("run %d: %d assessments, want all %d plans despite the panic",
						run, len(as), w.PlanCount)
				}
				unknown := 0
				for _, a := range as {
					switch a.Report.Verdict {
					case verify.Valid:
					case verify.Unknown:
						unknown++
						if !strings.Contains(a.Report.Reason, "internal error") {
							t.Fatalf("unknown reason = %q, want the internal error", a.Report.Reason)
						}
					default:
						t.Fatalf("plan %s: verdict %s on an all-valid workload", a.Plan, a.Report.Verdict)
					}
				}
				if unknown != 1 {
					t.Fatalf("run %d: %d unknown verdicts, want exactly 1 (the poisoned unit)",
						run, unknown)
				}
			})
		}
	}
}

// streamAll collects AssessStream's yields in stream order; the stream's
// error is returned alongside them, as AssessAll returns an isolated
// plan panic.
func streamAll(repo network.Repository, table *policy.Table, loc hexpr.Location,
	client hexpr.Expr, opts plans.Options) ([]plans.Assessment, error) {
	var as []plans.Assessment
	err := plans.AssessStream(repo, table, loc, client, opts, func(a plans.Assessment) error {
		as = append(as, a)
		return nil
	})
	return as, err
}

// TestFaultInjectionPanicKeyed: poisoning one specific plan key fails
// exactly that plan — the repro bundle names it.
func TestFaultInjectionPanicKeyed(t *testing.T) {
	w := benchgen.Chained(3, 2)
	all, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := all[3].Plan.Key()
	restore := faultinject.Set(faultinject.PanicOnce(faultinject.PlansWorker, victim, "keyed fault"))
	defer restore()
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{
		PruneNonCompliant: true,
	})
	var ie *budget.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *budget.InternalError", err)
	}
	if !strings.Contains(ie.Unit, victim) {
		t.Fatalf("repro unit = %q, want the poisoned plan key %q", ie.Unit, victim)
	}
	for _, a := range as {
		want := verify.Valid
		if a.Plan.Key() == victim {
			want = verify.Unknown
		}
		if a.Report.Verdict != want {
			t.Fatalf("plan %s: verdict %s, want %s", a.Plan, a.Report.Verdict, want)
		}
	}
}

// TestAssessStreamCancelDrains is the acceptance run: Chained(14,2) has
// 16384 plans, far more than 100ms of work, and a cancellation mid-stream
// must drain promptly — verdicts flushed before the cutoff stand, nothing
// after the cutoff claims Valid spuriously (the workload is all-valid, so
// every flushed verdict must be Valid or Unknown), and no goroutine leaks.
func TestAssessStreamCancelDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation soak is not -short")
	}
	before := runtime.NumGoroutine()
	w := benchgen.Chained(14, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := budget.New(ctx, budget.Limits{})
	// Delay each plan while the budget still holds, so the cancellation
	// is guaranteed to land mid-stream; once it lands the hook goes
	// silent and the drain runs at full speed — which is exactly what the
	// test times.
	restore := faultinject.Set(func(p faultinject.Point, unit string) {
		if p == faultinject.PlansWorker && b.Exhausted() == nil {
			time.Sleep(500 * time.Microsecond)
		}
	})
	defer restore()
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	seen, valid, unknown := 0, 0, 0
	err := plans.AssessStream(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Budget: b},
		func(a plans.Assessment) error {
			seen++
			switch a.Report.Verdict {
			case verify.Valid:
				valid++
			case verify.Unknown:
				unknown++
			default:
				t.Errorf("plan %s: verdict %s on an all-valid workload", a.Plan, a.Report.Verdict)
			}
			return nil
		})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled stream must return nil (partial results), got %v", err)
	}
	e := b.Exhausted()
	if e == nil || e.Reason != budget.Cancelled {
		t.Fatalf("budget must report the cancellation, got %v", e)
	}
	if unknown == 0 {
		t.Fatal("the cut must have left some verdicts undecided (unknown)")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancelled after 100ms but stream drained in %v", elapsed)
	}
	t.Logf("drained after %v: %d flushed (%d valid, %d unknown) of %d plans",
		elapsed, seen, valid, unknown, w.PlanCount)

	// Goroutine-leak check: nothing the stream started may outlive it.
	// Allow the runtime a moment to park exiting goroutines.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if i > 50 {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssessAllDeadline: a wall-clock budget cuts a large synthesis short
// with partial, sound results and the deadline reason.
func TestAssessAllDeadline(t *testing.T) {
	w := benchgen.Chained(12, 2)
	b := budget.New(context.Background(), budget.Limits{Timeout: 50 * time.Millisecond})
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{
		PruneNonCompliant: true, Budget: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Exhausted()
	if e == nil {
		t.Skip("machine finished Chained(12,2) inside 50ms; nothing to observe")
	}
	if e.Reason != budget.DeadlineExceeded {
		t.Fatalf("reason = %v, want DeadlineExceeded", e.Reason)
	}
	for _, a := range as {
		if v := a.Report.Verdict; v != verify.Valid && v != verify.Unknown {
			t.Fatalf("plan %s: verdict %s on an all-valid workload", a.Plan, v)
		}
	}
}

// TestAssessAllEdgeBudgetExhaustion: an edge budget that dies during the
// graph expansion must degrade gracefully — no error, every verdict Valid
// or Unknown (the workload is all-valid), at least one Unknown, the budget
// reporting the edge limit, and no goroutine left behind.
func TestAssessAllEdgeBudgetExhaustion(t *testing.T) {
	before := runtime.NumGoroutine()
	w := benchgen.Chained(8, 2)
	b := budget.New(context.Background(), budget.Limits{MaxEdges: 200})
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	e := b.Exhausted()
	if e == nil || e.Reason != budget.EdgeLimit {
		t.Fatalf("budget must report the edge limit, got %v", e)
	}
	unknown := 0
	for _, a := range as {
		switch a.Report.Verdict {
		case verify.Valid:
		case verify.Unknown:
			unknown++
		default:
			t.Fatalf("plan %s: verdict %s on an all-valid workload", a.Plan, a.Report.Verdict)
		}
	}
	if unknown == 0 {
		t.Fatal("an exhausted edge budget must leave some verdicts Unknown")
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if i > 50 {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssessAllCancellation: a context cancelled mid-run stops the
// assessment promptly, with sound partial output.
func TestAssessAllCancellation(t *testing.T) {
	w := benchgen.Chained(10, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := budget.New(ctx, budget.Limits{})
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v to drain", elapsed)
	}
	for _, a := range as {
		if v := a.Report.Verdict; v != verify.Valid && v != verify.Unknown {
			t.Fatalf("plan %s: verdict %s on an all-valid workload", a.Plan, v)
		}
	}
}
