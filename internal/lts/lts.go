// Package lts implements the operational semantics of stand-alone history
// expressions (the rules I-Choice, E-Choice, αAcc, S-Open, P-Open, Conc and
// Rec of the paper) and builds the finite labelled transition system of a
// closed expression.
//
// Finiteness follows from the syntactic restrictions of Definition 1:
// recursion is guarded tail recursion, so unfolding μh.H eventually
// reproduces already-visited terms; the builder memoises states on the
// canonical Key of the term.
package lts

import (
	"fmt"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/intern"
)

// Transition is a single small step H —λ→ H′.
type Transition struct {
	Label hexpr.Label
	To    hexpr.Expr
}

// Step returns the successors of e under the stand-alone operational
// semantics. The order of the returned transitions is deterministic.
func Step(e hexpr.Expr) []Transition {
	switch t := e.(type) {
	case hexpr.Nil, hexpr.Var:
		return nil
	case hexpr.Ev:
		// (α Acc): α —α→ ε
		return []Transition{{Label: hexpr.EventLabel(t.Event), To: hexpr.Eps()}}
	case hexpr.IntChoice:
		// (I-Choice): ⊕ᵢ āᵢ.Hᵢ —āᵢ→ Hᵢ
		return branchSteps(t.Branches)
	case hexpr.ExtChoice:
		// (E-Choice): Σᵢ aᵢ.Hᵢ —aᵢ→ Hᵢ
		return branchSteps(t.Branches)
	case hexpr.Session:
		// (S-Open): open_{r,φ}·H·close_{r,φ} —open_{r,φ}→ H·close_{r,φ}
		return []Transition{{
			Label: hexpr.OpenLabel(t.Req, t.Policy),
			To:    hexpr.Cat(t.Body, hexpr.CloseTag{Req: t.Req, Policy: t.Policy}),
		}}
	case hexpr.CloseTag:
		return []Transition{{Label: hexpr.CloseLabel(t.Req, t.Policy), To: hexpr.Eps()}}
	case hexpr.Framing:
		// (P-Open): φ[H] —⌊φ→ H·⌋φ
		return []Transition{{
			Label: hexpr.FrameOpenLabel(t.Policy),
			To:    hexpr.Cat(t.Body, hexpr.FrameClose{Policy: t.Policy}),
		}}
	case hexpr.FrameClose:
		return []Transition{{Label: hexpr.FrameCloseLabel(t.Policy), To: hexpr.Eps()}}
	case hexpr.Seq:
		// (Conc): H —λ→ H′ implies H·H″ —λ→ H′·H″
		inner := Step(t.Left)
		out := make([]Transition, len(inner))
		for i, tr := range inner {
			out[i] = Transition{Label: tr.Label, To: hexpr.Cat(tr.To, t.Right)}
		}
		return out
	case hexpr.Rec:
		// (Rec): H{μh.H/h} —λ→ H′ implies μh.H —λ→ H′
		return Step(hexpr.Unfold(t))
	}
	panic(fmt.Sprintf("lts: unknown expression %T", e))
}

func branchSteps(bs []hexpr.Branch) []Transition {
	out := make([]Transition, len(bs))
	for i, b := range bs {
		out[i] = Transition{Label: hexpr.CommLabel(b.Comm), To: b.Cont}
	}
	return out
}

// Edge is a transition in a built LTS, with the target given as a state
// index.
type Edge struct {
	Label hexpr.Label
	To    int
}

// LTS is the finite transition system of a closed history expression.
// State 0 is the initial expression.
type LTS struct {
	// States holds the expression of each state; States[0] is the initial
	// expression.
	States []hexpr.Expr
	// Edges[i] are the outgoing transitions of state i, in deterministic
	// order.
	Edges [][]Edge

	tab   *intern.Table
	index map[intern.ID]int
}

// DefaultMaxStates bounds LTS construction; well-formed expressions stay
// far below it, the bound only guards against ill-formed input.
const DefaultMaxStates = 1 << 20

// Build explores the state space of e and returns its LTS. It fails if the
// exploration exceeds DefaultMaxStates states (which cannot happen for
// expressions accepted by hexpr.Check).
func Build(e hexpr.Expr) (*LTS, error) { return BuildBounded(e, DefaultMaxStates) }

// BuildBounded is Build with an explicit state bound.
func BuildBounded(e hexpr.Expr, maxStates int) (*LTS, error) {
	return BuildBudgeted(intern.NewTable(), e, maxStates, nil)
}

// BuildBudgeted is BuildBounded over a caller-supplied interning table, so
// repeated builds reuse each other's interning work (the builder memoises
// states on interned IDs instead of the recursive Key() strings),
// charging every explored state (and its outgoing edges) against the
// budget (nil = unlimited). Exhaustion or
// cancellation aborts construction with the typed *budget.ExhaustedError
// — never a partial LTS, so memoisation layers cannot cache a truncated
// state space.
func BuildBudgeted(tab *intern.Table, e hexpr.Expr, maxStates int, b *budget.Budget) (*LTS, error) {
	l := &LTS{tab: tab, index: map[intern.ID]int{}}
	l.add(e)
	for i := 0; i < len(l.States); i++ {
		if len(l.States) > maxStates {
			return nil, fmt.Errorf("lts: state space exceeds %d states", maxStates)
		}
		if err := b.ConsumeStates(1); err != nil {
			return nil, err
		}
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.LTSBuild, "")
		}
		steps := Step(l.States[i])
		edges := make([]Edge, len(steps))
		for j, tr := range steps {
			edges[j] = Edge{Label: tr.Label, To: l.add(tr.To)}
		}
		l.Edges = append(l.Edges, edges)
		if err := b.ConsumeEdges(int64(len(edges))); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *LTS) add(e hexpr.Expr) int {
	k := l.tab.Expr(e)
	if i, ok := l.index[k]; ok {
		return i
	}
	i := len(l.States)
	l.States = append(l.States, e)
	l.index[k] = i
	return i
}

// StateOf returns the index of the state whose expression equals e, or -1.
func (l *LTS) StateOf(e hexpr.Expr) int {
	if l.tab == nil {
		return -1
	}
	if i, ok := l.index[l.tab.Expr(e)]; ok {
		return i
	}
	return -1
}

// Len returns the number of states.
func (l *LTS) Len() int { return len(l.States) }

// Terminated reports whether state i is the terminated expression ε.
func (l *LTS) Terminated(i int) bool { return hexpr.IsNil(l.States[i]) }

// Stuck returns the states that have no outgoing transition and are not
// terminated. A closed well-formed expression alone can only get stuck on a
// free variable, so for checked expressions this is always empty; stuck
// states matter for the product constructions built on top of this package.
func (l *LTS) Stuck() []int {
	var out []int
	for i, es := range l.Edges {
		if len(es) == 0 && !l.Terminated(i) {
			out = append(out, i)
		}
	}
	return out
}

// Trace is a sequence of labels from the initial state.
type Trace []hexpr.Label

// Traces enumerates all traces of length ≤ maxLen starting from the initial
// state, in depth-first deterministic order. Intended for tests and small
// examples; the number of traces can grow exponentially with maxLen.
func (l *LTS) Traces(maxLen int) []Trace {
	var out []Trace
	var walk func(state int, prefix Trace, depth int)
	walk = func(state int, prefix Trace, depth int) {
		out = append(out, append(Trace(nil), prefix...))
		if depth == maxLen {
			return
		}
		for _, e := range l.Edges[state] {
			walk(e.To, append(prefix, e.Label), depth+1)
		}
	}
	walk(0, nil, 0)
	return out
}

// CanReachTermination reports whether state i can reach the terminated
// state ε.
func (l *LTS) CanReachTermination(i int) bool {
	seen := make([]bool, len(l.States))
	var dfs func(int) bool
	dfs = func(s int) bool {
		if l.Terminated(s) {
			return true
		}
		if seen[s] {
			return false
		}
		seen[s] = true
		for _, e := range l.Edges[s] {
			if dfs(e.To) {
				return true
			}
		}
		return false
	}
	return dfs(i)
}
