package valid

import (
	"susc/internal/autom"
	"susc/internal/budget"
	"susc/internal/hexpr"
	"susc/internal/policy"
)

// Counterexample is a typed, minimal witness to a validity violation: a
// BFS-shortest history of the expression whose final item trips the
// policy, together with the run of the policy automaton over it. It is
// what ModelCheck extracts from the intersection automaton of Theorem 1
// and what the semantic analyzers (internal/lint) attach to diagnostics.
type Counterexample struct {
	// Policy is the violated framing.
	Policy hexpr.PolicyID
	// Trace is the violating history, decoded into paper syntax.
	Trace []HistoryStep
	// Word is the same history in the internal alphabet encoding
	// (EncodeItem symbols); it replays over the product automaton.
	Word []string
	// Start is the policy-automaton start state name (the state before
	// the first item of the trace).
	Start string
}

// HistoryStep is one item of a violating history annotated with the policy
// automaton state reached *after* the item, and whether the framing is
// active at that point.
type HistoryStep struct {
	// Item renders the history item in paper syntax (an event, ⌊φ or ⌋φ).
	Item string
	// State is the policy-automaton state name after the item.
	State string
	// Active reports whether the framing is active after the item.
	Active bool
}

// Violation converts the counterexample to the legacy error type with the
// same message text ModelCheck historically produced.
func (c *Counterexample) Violation() *Violation {
	return &Violation{Policy: c.Policy, Trace: decodeWord(c.Word)}
}

// FindCounterexamples model-checks the expression against every policy it
// frames and returns one shortest counterexample per violated policy, in
// the document order of the framings (empty when the expression is valid).
// It is the structured core of ModelCheck: regularize, extract the
// history-prefix NFA, intersect with each framed policy automaton
// (Theorem 1), and decode the shortest accepted word plus its automaton
// run.
func FindCounterexamples(e hexpr.Expr, table *policy.Table) ([]*Counterexample, error) {
	return FindCounterexamplesBudget(e, table, nil)
}

// FindCounterexamplesBudget is FindCounterexamples with the state-space
// work — the history LTS and the per-policy intersections — charged
// against the budget (nil = unbounded). Exhaustion or cancellation aborts
// with the typed *budget.ExhaustedError; no partial counterexample list
// is returned, so callers never mistake a truncated check for validity.
func FindCounterexamplesBudget(e hexpr.Expr, table *policy.Table, b *budget.Budget) ([]*Counterexample, error) {
	reg := Regularize(e)
	hn, err := HistoryNFABudget(reg, b)
	if err != nil {
		return nil, err
	}
	events := hexpr.Events(reg)
	frames := hexpr.Policies(reg)
	var alphabet []string
	for _, ev := range events {
		alphabet = append(alphabet, symEvent+ev.String())
	}
	for _, f := range frames {
		alphabet = append(alphabet, symFrameOpen+string(f), symFrameClose+string(f))
	}
	// The per-policy intersections run on dense-table DFAs: the history is
	// determinised once, each framed policy once per frame, and the
	// product and its shortlex-least word index int32 arrays.
	hd := hn.Determinize(alphabet)
	var out []*Counterexample
	for _, f := range frames {
		if err := b.Err(); err != nil {
			return nil, err
		}
		in, err := table.Get(f)
		if err != nil {
			return nil, err
		}
		bad := FramedPolicyNFA(in, events, frames)
		inter := hd.Intersect(bad.Determinize(alphabet))
		word := inter.AcceptingPath()
		if word == nil {
			continue
		}
		out = append(out, newCounterexample(f, in, bad, word))
	}
	return out, nil
}

// FindCounterexample returns the first counterexample of
// FindCounterexamples, or nil when the expression is valid.
func FindCounterexample(e hexpr.Expr, table *policy.Table) (*Counterexample, error) {
	ces, err := FindCounterexamples(e, table)
	if err != nil || len(ces) == 0 {
		return nil, err
	}
	return ces[0], nil
}

// newCounterexample decodes the violating word and reconstructs the policy
// automaton run by replaying it over the framed-policy NFA (whose states
// encode (q, active) as q*2+active).
func newCounterexample(f hexpr.PolicyID, in *policy.Instance, bad *autom.NFA, word []string) *Counterexample {
	ce := &Counterexample{
		Policy: f,
		Word:   append([]string(nil), word...),
		Start:  in.StateName(in.StartState()),
	}
	h := decodeWord(word)
	run := bad.RunFor(word)
	ce.Trace = make([]HistoryStep, len(h))
	for i := range h {
		step := HistoryStep{Item: h[i].String()}
		if run != nil && i+1 < len(run) {
			s := run[i+1]
			step.State = in.StateName(s / 2)
			step.Active = s%2 == 1
		}
		ce.Trace[i] = step
	}
	return ce
}
