// Package faultinject deterministically injects faults — panics, delays,
// cancellations — at named points in the exploration engines, so every
// degradation path (panic isolation, budget exhaustion, cancellation
// mid-BFS) is exercised by tests instead of by luck.
//
// The mechanism is hook-based and nil-by-default: production code calls
// Enabled() (one atomic load) before building the unit key and firing,
// so with no hook installed the instrumented paths cost a nanosecond and
// allocate nothing. No build tags are involved — the same binary that
// ships is the one under fault injection.
//
// Tests install a hook with Set and restore the previous one when done:
//
//	restore := faultinject.Set(faultinject.PanicOnce(faultinject.FusedExpand, "", "injected"))
//	defer restore()
//
// Hooks run on the engine goroutine that reaches the point, so a panic
// raised by a hook is exactly a worker panic.
package faultinject

import (
	"strings"
	"sync/atomic"
	"time"
)

// Point names one injection site. The set of points is part of the
// engines' testing contract: each names a memo, worker or BFS path whose
// degradation behaviour is pinned by table-driven tests.
type Point string

const (
	// PlansWorker fires before a plan-synthesis worker assesses one plan
	// (legacy and fused engines, sequential and parallel); the unit is
	// the plan key.
	PlansWorker Point = "plans.worker"
	// FusedExpand fires when the fused engine expands a shared graph
	// node (inside the node lock, before the move relation is computed);
	// the unit is the node's session-tree key.
	FusedExpand Point = "plans.fused.expand"
	// FusedReplay fires on every state visit of a fused plan replay; the
	// unit is the visited node's session-tree key.
	FusedReplay Point = "plans.fused.replay"
	// VerifyState fires on every state the exploration kernel of
	// internal/verify pops — in CheckPlanOpts, CheckNetwork and
	// ExploreFlow; the unit is the component-tree keys joined by " || "
	// (the session-tree key for one component).
	VerifyState Point = "verify.state"
	// LintAnalyzer fires before each lint analyzer runs; the unit is the
	// analyzer name.
	LintAnalyzer Point = "lint.analyzer"
	// LTSBuild fires on every state lts.BuildBudgeted adds; the unit is
	// empty (the builder is too hot to render expression keys).
	LTSBuild Point = "lts.build"
	// ServeAccept fires in the server's admission path, before the
	// in-flight semaphore is tried; the unit is the request mode
	// ("checkall", "plans", …).
	ServeAccept Point = "serve.accept"
	// ServeHandler fires inside a server request's panic guard, after
	// admission and before the engine runs; the unit is "mode#id"
	// (e.g. "plans#7"), so one specific request can be poisoned.
	ServeHandler Point = "serve.handler"
	// StoreWrite fires in store.Put before a record is appended; the
	// unit is the record-kind name ("plan", "compliance", …).
	StoreWrite Point = "store.write"
	// WebhookDeliver fires before each webhook delivery attempt
	// (retries included); the unit is the destination URL.
	WebhookDeliver Point = "webhook.deliver"
)

// Hook observes (and may sabotage) one fired point.
type Hook func(p Point, unit string)

var hook atomic.Pointer[Hook]

// Enabled reports whether a hook is installed. Hot paths check it before
// building the unit string, so disabled injection costs one atomic load.
func Enabled() bool { return hook.Load() != nil }

// Fire invokes the installed hook, if any, at point p.
func Fire(p Point, unit string) {
	if h := hook.Load(); h != nil {
		(*h)(p, unit)
	}
}

// Set installs h (nil uninstalls) and returns a function restoring the
// previous hook — meant for defer in tests.
func Set(h Hook) (restore func()) {
	var ptr *Hook
	if h != nil {
		ptr = &h
	}
	prev := hook.Swap(ptr)
	return func() { hook.Store(prev) }
}

// PanicOnce returns a hook that panics with msg the first time point p
// fires with a unit containing substr (empty substr matches any unit).
// Later firings pass, so retried units succeed — the panic is a one-shot
// poisoned unit, the shape the isolation machinery must absorb.
func PanicOnce(p Point, substr, msg string) Hook {
	var fired atomic.Bool
	return func(pt Point, unit string) {
		if pt != p || !strings.Contains(unit, substr) {
			return
		}
		if fired.CompareAndSwap(false, true) {
			panic(msg)
		}
	}
}

// CancelAfter returns a hook calling cancel once point p has fired n
// times — a deterministic cancellation point mid-exploration.
func CancelAfter(p Point, n int64, cancel func()) Hook {
	var count atomic.Int64
	var fired atomic.Bool
	return func(pt Point, unit string) {
		if pt != p {
			return
		}
		if count.Add(1) >= n && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
}

// DelayAt returns a hook sleeping d every time point p fires — for
// driving wall-clock deadlines through otherwise-fast explorations.
func DelayAt(p Point, d time.Duration) Hook {
	return func(pt Point, unit string) {
		if pt == p {
			time.Sleep(d)
		}
	}
}

// Chain composes hooks; each fires in order.
func Chain(hs ...Hook) Hook {
	return func(p Point, unit string) {
		for _, h := range hs {
			h(p, unit)
		}
	}
}
