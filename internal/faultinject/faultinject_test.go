package faultinject

import (
	"sync"
	"testing"
)

func TestDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("hook installed at package init")
	}
	Fire(VerifyState, "x") // must be a no-op, not a nil deref
}

func TestSetAndRestore(t *testing.T) {
	var got []string
	restore := Set(func(p Point, unit string) { got = append(got, string(p)+":"+unit) })
	if !Enabled() {
		t.Fatal("Enabled() false after Set")
	}
	Fire(PlansWorker, "p1")
	restore()
	if Enabled() {
		t.Fatal("Enabled() true after restore")
	}
	Fire(PlansWorker, "p2")
	if len(got) != 1 || got[0] != "plans.worker:p1" {
		t.Fatalf("fired: %v", got)
	}
}

func TestSetNilUninstalls(t *testing.T) {
	restore := Set(func(Point, string) {})
	defer restore()
	restore2 := Set(nil)
	defer restore2()
	if Enabled() {
		t.Fatal("nil hook counts as enabled")
	}
	Fire(VerifyState, "")
}

func TestPanicOncePanicsExactlyOnceAndFilters(t *testing.T) {
	h := PanicOnce(FusedExpand, "needle", "boom")
	h(FusedReplay, "needle")   // wrong point: no panic
	h(FusedExpand, "haystack") // wrong unit: no panic
	panicked := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return
	}
	if !panicked(func() { h(FusedExpand, "a needle here") }) {
		t.Fatal("matching firing did not panic")
	}
	if panicked(func() { h(FusedExpand, "a needle here") }) {
		t.Fatal("second firing panicked again")
	}
}

func TestPanicOnceRaceSafe(t *testing.T) {
	h := PanicOnce(PlansWorker, "", "boom")
	var wg sync.WaitGroup
	var mu sync.Mutex
	panics := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					mu.Lock()
					panics++
					mu.Unlock()
				}
			}()
			for i := 0; i < 100; i++ {
				h(PlansWorker, "u")
			}
		}()
	}
	wg.Wait()
	if panics != 1 {
		t.Fatalf("PanicOnce fired %d times", panics)
	}
}

func TestCancelAfter(t *testing.T) {
	cancelled := 0
	h := CancelAfter(VerifyState, 3, func() { cancelled++ })
	for i := 0; i < 10; i++ {
		h(VerifyState, "")
	}
	h(LTSBuild, "") // other points don't count
	if cancelled != 1 {
		t.Fatalf("cancel ran %d times, want 1", cancelled)
	}
}

func TestChain(t *testing.T) {
	var order []int
	h := Chain(
		func(Point, string) { order = append(order, 1) },
		func(Point, string) { order = append(order, 2) },
	)
	h(LintAnalyzer, "")
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("chain order: %v", order)
	}
}
