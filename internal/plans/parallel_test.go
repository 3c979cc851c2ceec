package plans_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/memo"
	"susc/internal/plans"
	"susc/internal/verify"
)

// TestAssessAllWorkersDeterministic: concurrency must be invisible in the
// output. Concurrent AssessAll calls — the server's shape: 8 goroutines
// over one shared memo cache — each yield assessments byte-identical to a
// sequential run, and a shared cache is reusable for a second, identical
// run. Run under -race this exercises the shared cache and interner
// across callers.
func TestAssessAllWorkersDeterministic(t *testing.T) {
	w := benchgen.Hotels(12)
	marshal := func(cache *memo.Cache) ([]byte, error) {
		as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true, Cache: cache})
		if err != nil {
			return nil, err
		}
		type entry struct {
			Plan   string
			Report string
		}
		out := make([]entry, len(as))
		for i, a := range as {
			out[i] = entry{Plan: a.Plan.Key(), Report: a.Report.String()}
		}
		return json.Marshal(out)
	}
	sequential, err := marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(sequential) == "[]" {
		t.Fatal("no assessments")
	}

	cache := memo.New()
	const callers = 8
	got := make([][]byte, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = marshal(cache)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if string(got[i]) != string(sequential) {
			t.Fatalf("caller %d over the shared cache diverges from sequential:\n%s\nvs\n%s",
				i, got[i], sequential)
		}
	}
	again, err := marshal(cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(sequential) {
		t.Fatalf("warm-cache rerun diverges:\n%s", again)
	}
	if cache.Stats().Hits() == 0 {
		t.Fatal("warm rerun produced no cache hits")
	}
}

// TestBudgetedAssessmentDeterministic: a budgeted answer depends only on
// the budget. Every run under the same state or edge limit renders the
// same assessments — the same plans cut off, with the same counters in
// their Unknown reasons — whatever Options.Workers says and however often
// it runs, because the engine spends the budget on one goroutine and on
// nothing but the plans it assesses, in enumeration order.
func TestBudgetedAssessmentDeterministic(t *testing.T) {
	w := benchgen.Chained(8, 2)
	for _, lim := range []budget.Limits{{MaxEdges: 2000}, {MaxStates: 1500}} {
		var want []string
		for _, workers := range []int{1, 4} {
			for run := 0; run < 3; run++ {
				b := budget.New(context.Background(), lim)
				as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
					plans.Options{PruneNonCompliant: true, Workers: workers, Budget: b})
				if err != nil {
					t.Fatal(err)
				}
				if b.Exhausted() == nil {
					t.Fatalf("%+v: the budget must bite on Chained(8,2)", lim)
				}
				got := render(t, as)
				if want == nil {
					want = got
					unknown := 0
					for _, a := range as {
						if a.Report.Verdict == verify.Unknown {
							unknown++
						}
					}
					if unknown == 0 || unknown == len(as) {
						t.Fatalf("%+v: %d of %d plans Unknown; the cutoff must fall mid-sweep",
							lim, unknown, len(as))
					}
					continue
				}
				compareRendered(t, fmt.Sprintf("%+v workers=%d run %d", lim, workers, run), got, want)
			}
		}
	}
}

// TestAssessStreamStaysOnCallerGoroutine pins the invariant the engine's
// lock-free graph rests on: AssessStream starts no goroutine, whatever
// Options.Workers says, so yield never observes more goroutines than
// existed before the call.
func TestAssessStreamStaysOnCallerGoroutine(t *testing.T) {
	w := benchgen.Chained(8, 2)
	before := runtime.NumGoroutine()
	peak, n := 0, 0
	err := plans.AssessStream(w.Repo, w.Table, w.Loc, w.Client,
		plans.Options{PruneNonCompliant: true, Workers: 8},
		func(plans.Assessment) error {
			n++
			peak = max(peak, runtime.NumGoroutine())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != w.PlanCount {
		t.Fatalf("streamed %d assessments, want %d", n, w.PlanCount)
	}
	if peak > before {
		t.Fatalf("yield saw %d goroutines, %d before the call", peak, before)
	}
}
