package autom

import (
	"reflect"
	"testing"
)

// chainNFA builds q0 -a-> q1 -b-> q2(*) with a distracting longer branch
// q0 -c-> q3 -c-> q4 -c-> q5(*).
func chainNFA() *NFA {
	a := NewNFA()
	q1, q2 := a.AddState(), a.AddState()
	q3, q4, q5 := a.AddState(), a.AddState(), a.AddState()
	a.AddEdge(0, "a", q1)
	a.AddEdge(q1, "b", q2)
	a.SetAccept(q2, true)
	a.AddEdge(0, "c", q3)
	a.AddEdge(q3, "c", q4)
	a.AddEdge(q4, "c", q5)
	a.SetAccept(q5, true)
	return a
}

func TestAcceptingRunShortest(t *testing.T) {
	a := chainNFA()
	word, states := a.AcceptingRun()
	if !reflect.DeepEqual(word, []string{"a", "b"}) {
		t.Fatalf("word = %v, want [a b]", word)
	}
	if !reflect.DeepEqual(states, []int{0, 1, 2}) {
		t.Fatalf("states = %v, want [0 1 2]", states)
	}
	if !a.Accepts(word) {
		t.Error("witness not accepted")
	}
}

func TestAcceptingRunEmptyLanguage(t *testing.T) {
	a := NewNFA()
	q1 := a.AddState()
	a.AddEdge(0, "a", q1) // no accepting state
	if word, states := a.AcceptingRun(); word != nil || states != nil {
		t.Fatalf("empty language: got %v / %v", word, states)
	}
}

func TestAcceptingRunEmptyWord(t *testing.T) {
	a := NewNFA()
	a.SetAccept(0, true)
	word, states := a.AcceptingRun()
	if word == nil || len(word) != 0 {
		t.Fatalf("want non-nil empty word, got %v", word)
	}
	if !reflect.DeepEqual(states, []int{0}) {
		t.Fatalf("states = %v", states)
	}
	// the AcceptingPath/IsEmpty contract depends on non-nil empty words
	if a.IsEmpty() {
		t.Error("IsEmpty true though the empty word is accepted")
	}
}

func TestRunFor(t *testing.T) {
	a := chainNFA()
	if run := a.RunFor([]string{"a", "b"}); !reflect.DeepEqual(run, []int{0, 1, 2}) {
		t.Errorf("RunFor(ab) = %v", run)
	}
	if run := a.RunFor([]string{"c", "c", "c"}); !reflect.DeepEqual(run, []int{0, 3, 4, 5}) {
		t.Errorf("RunFor(ccc) = %v", run)
	}
	if run := a.RunFor([]string{"b"}); run != nil {
		t.Errorf("RunFor(b) = %v, want nil", run)
	}
	if run := a.RunFor([]string{"a"}); run != nil {
		t.Errorf("RunFor(a) = %v, want nil (q1 not accepting)", run)
	}
}

func TestReachableCoreachable(t *testing.T) {
	a := NewNFA()
	q1, q2, q3 := a.AddState(), a.AddState(), a.AddState()
	a.AddEdge(0, "a", q1)
	a.SetAccept(q1, true)
	a.AddEdge(q2, "b", q1) // q2 unreachable but co-reachable
	a.AddEdge(q1, "c", q3) // q3 reachable but inert
	reach := a.Reachable()
	if !reach[0] || !reach[q1] || reach[q2] || !reach[q3] {
		t.Errorf("Reachable = %v", reach)
	}
	co := a.Coreachable()
	if !co[0] || !co[q1] || !co[q2] || co[q3] {
		t.Errorf("Coreachable = %v", co)
	}
}

func TestWordTo(t *testing.T) {
	a := chainNFA()
	word, states := a.WordTo(4)
	if !reflect.DeepEqual(word, []string{"c", "c"}) || !reflect.DeepEqual(states, []int{0, 3, 4}) {
		t.Errorf("WordTo(4) = %v / %v", word, states)
	}
	if word, states := a.WordTo(0); len(word) != 0 || word == nil || !reflect.DeepEqual(states, []int{0}) {
		t.Errorf("WordTo(start) = %v / %v", word, states)
	}
	orphan := a.AddState()
	if word, states := a.WordTo(orphan); word != nil || states != nil {
		t.Errorf("WordTo(orphan) = %v / %v", word, states)
	}
}

// wordDFA builds a one-word DFA over {a,b}.
func wordDFA(word ...string) *Compiled {
	n := NewNFA()
	cur := 0
	for _, sym := range word {
		next := n.AddState()
		n.AddEdge(cur, sym, next)
		cur = next
	}
	n.SetAccept(cur, true)
	return n.Determinize([]string{"a", "b"})
}

func TestDifferenceIncluded(t *testing.T) {
	ab := wordDFA("a", "b")
	// L = {ab, ba}
	n := NewNFA()
	q1, q2, q3, q4 := n.AddState(), n.AddState(), n.AddState(), n.AddState()
	n.AddEdge(0, "a", q1)
	n.AddEdge(q1, "b", q2)
	n.SetAccept(q2, true)
	n.AddEdge(0, "b", q3)
	n.AddEdge(q3, "a", q4)
	n.SetAccept(q4, true)
	both := n.Determinize([]string{"a", "b"})

	if ok, sep := ab.Included(both); !ok || sep != nil {
		t.Errorf("{ab} ⊆ {ab,ba} failed: %v %v", ok, sep)
	}
	ok, sep := both.Included(ab)
	if ok {
		t.Fatal("{ab,ba} ⊆ {ab} must fail")
	}
	if !reflect.DeepEqual(sep, []string{"b", "a"}) {
		t.Errorf("separating word = %v, want [b a]", sep)
	}
	diff := both.Difference(ab)
	if diff.IsEmpty() {
		t.Error("difference must be non-empty")
	}
	if !diff.Accepts([]string{"b", "a"}) || diff.Accepts([]string{"a", "b"}) {
		t.Error("difference accepts the wrong words")
	}
}

func TestDFAAcceptingRun(t *testing.T) {
	d := wordDFA("a", "b")
	word, states := d.AcceptingRun()
	if !reflect.DeepEqual(word, []string{"a", "b"}) {
		t.Fatalf("word = %v", word)
	}
	if len(states) != 3 || states[0] != int(d.Start) {
		t.Fatalf("states = %v", states)
	}
	// replay the run through the table
	for i, sym := range word {
		if int(d.Step(int32(states[i]), d.SymIndex(sym))) != states[i+1] {
			t.Fatalf("run does not replay at step %d", i)
		}
	}
	if !d.Accepting(int32(states[len(states)-1])) {
		t.Error("run does not end accepting")
	}
}
