// Package budget provides the graceful-degradation primitives of the
// exploration engines: bounded, cancellable budgets with cheap atomic
// accounting, and panic isolation for worker pools.
//
// The state spaces behind plan synthesis and verification grow
// exponentially with the specification (Chained(12,2) already explores
// 4096 plans), so a production-scale checker must be able to stop —
// on a state or edge limit, a wall-clock deadline, or a cancelled
// context — and still report a sound partial answer. A Budget is the
// shared meter every engine charges its work against: exhausting it
// never aborts the process, it surfaces as the Unknown verdict of
// internal/verify ("budget exhausted after N states") while verdicts
// decided before the cutoff stand.
//
// A nil *Budget is valid everywhere and means "unbounded, never
// cancelled": every method on a nil receiver is a no-op, so engines
// thread budgets unconditionally without nil checks at call sites and
// un-budgeted runs pay (almost) nothing.
//
// Guard is the companion for worker pools: it converts a worker panic
// into a typed *InternalError carrying the offending unit (a plan key,
// a state key, an analyzer name) as a repro bundle, so one poisoned
// unit fails alone and the rest of the fleet finishes.
package budget

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Reason classifies why a budget was exhausted.
type Reason int

const (
	// StateLimit: the exploration charged more states than Limits.MaxStates.
	StateLimit Reason = iota + 1
	// EdgeLimit: the exploration charged more edges than Limits.MaxEdges.
	EdgeLimit
	// DeadlineExceeded: the wall-clock deadline (Limits.Timeout, or the
	// context's own deadline) passed.
	DeadlineExceeded
	// Cancelled: the context was cancelled (e.g. SIGINT).
	Cancelled
)

func (r Reason) String() string {
	switch r {
	case StateLimit:
		return "state budget exhausted"
	case EdgeLimit:
		return "edge budget exhausted"
	case DeadlineExceeded:
		return "deadline exceeded"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// ExhaustedError is the typed, sticky error a Budget returns once any
// limit is hit or the context is cancelled. The counters are a snapshot
// taken when the budget first failed.
type ExhaustedError struct {
	Reason Reason
	// States and Edges are the totals charged when the budget failed.
	States, Edges int64
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("%s after %d states, %d edges", e.Reason, e.States, e.Edges)
}

// Limits bounds one Budget. The zero value is unlimited.
type Limits struct {
	// MaxStates bounds the number of states charged (0 = unlimited).
	MaxStates int64
	// MaxEdges bounds the number of edges charged (0 = unlimited).
	MaxEdges int64
	// Timeout is the wall-clock budget from New (0 = none).
	Timeout time.Duration
}

// pollEvery is how many charges pass between two polls of the context
// and the deadline: polling costs a channel select and a time.Now, so it
// is amortised over a block of cheap atomic adds. Cancellation is still
// noticed within microseconds on any live exploration.
const pollEvery = 256

// Budget is a concurrency-safe work meter: exploration engines charge
// states and edges against it, and the first exceeded limit (or context
// cancellation, or passed deadline) makes every later charge fail with
// the same sticky *ExhaustedError. A nil *Budget is unlimited.
type Budget struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	maxStates   int64
	maxEdges    int64

	states atomic.Int64
	edges  atomic.Int64
	polls  atomic.Int64
	done   atomic.Pointer[ExhaustedError]
}

// New returns a budget drawing cancellation from ctx (nil = background)
// and bounded by lim. A Limits.Timeout starts counting now; if ctx also
// carries a deadline, whichever comes first wins (a passed context
// deadline surfaces as DeadlineExceeded, a plain cancellation as
// Cancelled).
func New(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, maxStates: lim.MaxStates, maxEdges: lim.MaxEdges}
	if lim.Timeout > 0 {
		b.deadline = time.Now().Add(lim.Timeout)
		b.hasDeadline = true
	}
	return b
}

// ConsumeStates charges n states and reports the sticky failure, if any.
func (b *Budget) ConsumeStates(n int64) *ExhaustedError {
	if b == nil {
		return nil
	}
	if e := b.done.Load(); e != nil {
		return e
	}
	if s := b.states.Add(n); b.maxStates > 0 && s > b.maxStates {
		return b.fail(StateLimit)
	}
	return b.maybePoll()
}

// ConsumeEdges charges n edges and reports the sticky failure, if any.
func (b *Budget) ConsumeEdges(n int64) *ExhaustedError {
	if b == nil {
		return nil
	}
	if e := b.done.Load(); e != nil {
		return e
	}
	if s := b.edges.Add(n); b.maxEdges > 0 && s > b.maxEdges {
		return b.fail(EdgeLimit)
	}
	return b.maybePoll()
}

// Check charges nothing but still participates in the periodic
// context/deadline poll — the gate for loops that do work without
// visiting states (plan enumeration, per-declaration analyzer loops).
func (b *Budget) Check() *ExhaustedError {
	if b == nil {
		return nil
	}
	if e := b.done.Load(); e != nil {
		return e
	}
	return b.maybePoll()
}

// Exhausted returns the sticky failure, or nil while the budget holds.
// Unlike the Consume methods it always polls the context and deadline,
// so a cancellation is never missed at a decision point.
func (b *Budget) Exhausted() *ExhaustedError {
	if b == nil {
		return nil
	}
	if e := b.done.Load(); e != nil {
		return e
	}
	return b.poll()
}

// Err is Exhausted as a plain error (a nil error when the budget holds),
// for call sites that only propagate.
func (b *Budget) Err() error {
	if e := b.Exhausted(); e != nil {
		return e
	}
	return nil
}

// States returns the states charged so far.
func (b *Budget) States() int64 {
	if b == nil {
		return 0
	}
	return b.states.Load()
}

// Edges returns the edges charged so far.
func (b *Budget) Edges() int64 {
	if b == nil {
		return 0
	}
	return b.edges.Load()
}

func (b *Budget) maybePoll() *ExhaustedError {
	if b.polls.Add(1)%pollEvery != 0 {
		return nil
	}
	return b.poll()
}

func (b *Budget) poll() *ExhaustedError {
	if err := b.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			return b.fail(DeadlineExceeded)
		}
		return b.fail(Cancelled)
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		return b.fail(DeadlineExceeded)
	}
	return nil
}

// fail records the first failure; racing charges all observe the winner.
func (b *Budget) fail(r Reason) *ExhaustedError {
	e := &ExhaustedError{Reason: r, States: b.states.Load(), Edges: b.edges.Load()}
	if b.done.CompareAndSwap(nil, e) {
		return e
	}
	return b.done.Load()
}

// InternalError is the typed failure of one isolated unit of work: a
// worker panic converted by Guard into an error that names the unit it
// was processing (the repro bundle — a plan key, a state key, an
// analyzer name) and carries the recovered value and stack. It fails
// that unit only; sibling units of the pool keep running.
type InternalError struct {
	// Unit identifies the work item whose processing panicked, precise
	// enough to reproduce the failure (e.g. a plan key).
	Unit string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in %s: %v", e.Unit, e.Value)
}

// Guard runs fn, converting a panic into a typed *InternalError naming
// the unit. Callers wrap each unit of work (a served request, an
// analyzer, a plan) in a Guard so a poisoned unit fails alone instead of
// crashing the process.
func Guard(unit string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &InternalError{Unit: unit, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// GuardLazy is Guard with the unit name rendered only on the panic path.
// Hot loops whose unit description is expensive to build (e.g. a plan key
// formatted from a map) pass a closure instead of paying for the string on
// every healthy call.
func GuardLazy(unit func() string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &InternalError{Unit: unit(), Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}
