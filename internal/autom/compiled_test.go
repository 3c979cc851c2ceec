package autom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompiledAcceptsBasics(t *testing.T) {
	c := buildEvenAs().Determinize([]string{"a", "b"})
	cases := []struct {
		w    []string
		want bool
	}{
		{nil, true},
		{[]string{"a"}, false},
		{[]string{"a", "a"}, true},
		{[]string{"b", "a", "b", "a"}, true},
		{[]string{"c"}, false}, // unknown symbol
	}
	for _, cse := range cases {
		if got := c.Accepts(cse.w); got != cse.want {
			t.Errorf("Accepts(%v) = %v, want %v", cse.w, got, cse.want)
		}
	}
}

// TestPropCompiledAcceptsMatchesDFA is the table-stepping contract: on
// random automata and random words, walking the table with SymIndex and
// Step reaches an accepting state after exactly the prefixes the source
// NFA accepts, symbol for symbol.
func TestPropCompiledAcceptsMatchesDFA(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomNFA(r)
		c := n.Determinize([]string{"a", "b", "c"})
		for i := 0; i < 40; i++ {
			w := randomWord(r)
			s := c.Start
			for j := 0; j <= len(w); j++ {
				if c.Accepting(s) != n.Accepts(w[:j]) {
					return false
				}
				if j < len(w) {
					s = c.Step(s, c.SymIndex(w[j]))
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropCompiledOpsMatchDFA checks the dense-table algebra against the
// definitions on random automata: the product witness is the
// shortlex-least word both source NFAs accept and Included's separating
// word the shortlex-least word the first accepts and the second rejects,
// as far as a bounded brute force tells (the lint analyzers surface these
// words to users); IsEmpty agrees with the NFA's, and the complement
// accepts exactly the words the NFA rejects.
func TestPropCompiledOpsMatchDFA(t *testing.T) {
	const bound = 6
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2 := randomNFA(r), randomNFA(r)
		c1, c2 := n1.Determinize(fuzzAlphabet), n2.Determinize(fuzzAlphabet)

		both := func(w []string) bool { return n1.Accepts(w) && n2.Accepts(w) }
		if err := checkWitness(c1.Intersect(c2).AcceptingPath(), bound, both); err != nil {
			t.Logf("product witness: %v\n%s%s", err, n1, n2)
			return false
		}
		inc, sep := c1.Included(c2)
		only1 := func(w []string) bool { return n1.Accepts(w) && !n2.Accepts(w) }
		if err := checkWitness(sep, bound, only1); err != nil || inc != (sep == nil) {
			t.Logf("Included = %v, %v: %v\n%s%s", inc, sep, err, n1, n2)
			return false
		}
		if c1.IsEmpty() != n1.IsEmpty() {
			return false
		}
		comp := c1.Complement()
		for i := 0; i < 40; i++ {
			w := randomWord(r)
			if comp.Accepts(w) == n1.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCompiledReachableCoreachable(t *testing.T) {
	// 0 -a-> 1(acc) ; 2 unreachable; 3 reachable dead sink.
	c := &Compiled{
		Alphabet: []string{"a"},
		Trans:    []int32{1, 3, 2, 3},
		Accept:   []uint64{1 << 1},
		Start:    0,
		N:        4,
		K:        1,
	}
	reach := c.Reachable()
	co := c.Coreachable()
	bit := func(bs []uint64, s int) bool { return bs[s>>6]&(1<<(uint(s)&63)) != 0 }
	wantReach := []bool{true, true, false, true}
	wantCo := []bool{true, true, false, false}
	for s := 0; s < 4; s++ {
		if bit(reach, s) != wantReach[s] {
			t.Errorf("Reachable(%d) = %v, want %v", s, bit(reach, s), wantReach[s])
		}
		if bit(co, s) != wantCo[s] {
			t.Errorf("Coreachable(%d) = %v, want %v", s, bit(co, s), wantCo[s])
		}
	}
}

func wordsEqual(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
