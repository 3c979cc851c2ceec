package autom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildEvenAs returns an NFA accepting words over {a,b} with an even number
// of a's (it is in fact deterministic).
func buildEvenAs() *NFA {
	a := NewNFA()
	odd := a.AddState()
	a.SetAccept(0, true)
	a.AddEdge(0, "a", odd)
	a.AddEdge(odd, "a", 0)
	a.AddEdge(0, "b", 0)
	a.AddEdge(odd, "b", odd)
	return a
}

// buildEndsWithAB returns a genuinely nondeterministic NFA for Σ*ab.
func buildEndsWithAB() *NFA {
	n := NewNFA()
	s1 := n.AddState()
	s2 := n.AddState()
	n.AddEdge(0, "a", 0)
	n.AddEdge(0, "b", 0)
	n.AddEdge(0, "a", s1)
	n.AddEdge(s1, "b", s2)
	n.SetAccept(s2, true)
	return n
}

func TestNFAAccepts(t *testing.T) {
	a := buildEvenAs()
	cases := []struct {
		w    []string
		want bool
	}{
		{nil, true},
		{[]string{"a"}, false},
		{[]string{"a", "a"}, true},
		{[]string{"b", "a", "b", "a"}, true},
		{[]string{"a", "b", "b"}, false},
		{[]string{"c"}, false}, // unknown symbol
	}
	for _, c := range cases {
		if got := a.Accepts(c.w); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestNFAEmptiness(t *testing.T) {
	a := NewNFA()
	if !a.IsEmpty() {
		t.Error("no accepting state: language must be empty")
	}
	s := a.AddState()
	a.SetAccept(s, true)
	if !a.IsEmpty() {
		t.Error("unreachable accepting state: language must be empty")
	}
	a.AddEdge(0, "x", s)
	if a.IsEmpty() {
		t.Error("reachable accepting state: language must be non-empty")
	}
	if p := a.AcceptingPath(); len(p) != 1 || p[0] != "x" {
		t.Errorf("AcceptingPath = %v", p)
	}
}

func TestDeterminizeAgreesWithNFA(t *testing.T) {
	n := buildEndsWithAB()
	d := n.Determinize(nil)
	words := [][]string{
		nil, {"a"}, {"b"}, {"a", "b"}, {"b", "a", "b"},
		{"a", "a", "b"}, {"a", "b", "a"}, {"a", "b", "a", "b"},
	}
	for _, w := range words {
		if n.Accepts(w) != d.Accepts(w) {
			t.Errorf("NFA and DFA disagree on %v", w)
		}
	}
}

func TestComplement(t *testing.T) {
	d := buildEvenAs().Determinize([]string{"a", "b"})
	c := d.Complement()
	words := [][]string{nil, {"a"}, {"a", "a"}, {"b"}, {"a", "b", "a", "a"}}
	for _, w := range words {
		if d.Accepts(w) == c.Accepts(w) {
			t.Errorf("complement agrees with original on %v", w)
		}
	}
}

func TestIntersectAndEmptiness(t *testing.T) {
	alpha := []string{"a", "b"}
	even := buildEvenAs().Determinize(alpha)
	endsAB := buildEndsWithAB().Determinize(alpha)
	inter := even.Intersect(endsAB)
	// "aab" has 2 a's and ends in ab
	if !inter.Accepts([]string{"a", "a", "b"}) {
		t.Error("intersection should accept aab")
	}
	if inter.Accepts([]string{"a", "b"}) {
		t.Error("ab has odd #a")
	}
	// L ∩ ¬L = ∅
	if !even.Intersect(even.Complement()).IsEmpty() {
		t.Error("L∩¬L must be empty")
	}
}

// TestEquivalent: two automata for one language include each other, and
// two for different languages do not, separated by the shortlex-least
// word the source NFAs disagree on.
func TestEquivalent(t *testing.T) {
	alpha := []string{"a", "b"}
	// even #a again, with every state duplicated
	n := NewNFA()
	s1, s2, s3 := n.AddState(), n.AddState(), n.AddState()
	n.SetAccept(0, true)
	n.SetAccept(s2, true)
	n.AddEdge(0, "a", s1)
	n.AddEdge(s1, "a", s2)
	n.AddEdge(s2, "a", s3)
	n.AddEdge(s3, "a", 0)
	for _, s := range []int{0, s1, s2, s3} {
		n.AddEdge(s, "b", s)
	}
	even, endsAB := buildEvenAs(), buildEndsWithAB()
	d1, d2, d3 := even.Determinize(alpha), n.Determinize(alpha), endsAB.Determinize(alpha)
	if ok, sep := d1.Included(d2); !ok {
		t.Errorf("even #a not included in its duplicate: separated by %v", sep)
	}
	if ok, sep := d2.Included(d1); !ok {
		t.Errorf("duplicate not included in even #a: separated by %v", sep)
	}
	for _, c := range []struct {
		x, y   *Compiled
		nx, ny *NFA
		want   []string
	}{
		{d1, d3, even, endsAB, []string{}},
		{d3, d1, endsAB, even, []string{"a", "b"}},
	} {
		ok, sep := c.x.Included(c.y)
		if ok || !wordsEqual(sep, c.want) || !c.nx.Accepts(sep) || c.ny.Accepts(sep) {
			t.Errorf("Included = %v, %v; want false, %v", ok, sep, c.want)
		}
	}
}

// randomNFA builds a random NFA over {a,b,c} for property testing.
func randomNFA(rnd *rand.Rand) *NFA {
	n := NewNFA()
	states := 2 + rnd.Intn(5)
	for i := 1; i < states; i++ {
		n.AddState()
	}
	syms := []string{"a", "b", "c"}
	edges := 1 + rnd.Intn(3*states)
	for i := 0; i < edges; i++ {
		n.AddEdge(rnd.Intn(states), syms[rnd.Intn(3)], rnd.Intn(states))
	}
	for i := 0; i < states; i++ {
		if rnd.Intn(3) == 0 {
			n.SetAccept(i, true)
		}
	}
	return n
}

func randomWord(rnd *rand.Rand) []string {
	syms := []string{"a", "b", "c"}
	w := make([]string, rnd.Intn(8))
	for i := range w {
		w[i] = syms[rnd.Intn(3)]
	}
	return w
}

func TestPropDeterminizePreservesLanguage(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNFA(r)
		d := n.Determinize([]string{"a", "b", "c"})
		for i := 0; i < 30; i++ {
			w := randomWord(rnd)
			if n.Accepts(w) != d.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropComplementInvolution: complementing twice gives back the
// source NFA's language, on every word of length at most 4.
func TestPropComplementInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNFA(r)
		cc := n.Determinize([]string{"a", "b", "c"}).Complement().Complement()
		return shortlexFirst(4, func(w []string) bool { return cc.Accepts(w) != n.Accepts(w) }) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropEmptinessMatchesPath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNFA(r)
		p := n.AcceptingPath()
		if n.IsEmpty() {
			return p == nil
		}
		return p != nil && n.Accepts(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAcceptingPathIsShortest(t *testing.T) {
	n := NewNFA()
	s1, s2, s3 := n.AddState(), n.AddState(), n.AddState()
	// long path 0->1->2->3(accept) and short path 0->3
	n.AddEdge(0, "a", s1)
	n.AddEdge(s1, "a", s2)
	n.AddEdge(s2, "a", s3)
	n.AddEdge(0, "b", s3)
	n.SetAccept(s3, true)
	if p := n.AcceptingPath(); len(p) != 1 || p[0] != "b" {
		t.Errorf("shortest path = %v, want [b]", p)
	}
}

func TestDFAString(t *testing.T) {
	n := buildEvenAs()
	if n.String() == "" {
		t.Error("String should render something")
	}
	if got := n.Alphabet(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("alphabet = %v", got)
	}
}
