package autom

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzAlphabet is the fixed alphabet fuzzed automata range over. Three
// symbols are enough to exercise branching without exploding the bounded
// brute-force oracles below.
var fuzzAlphabet = []string{"a", "b", "c"}

// decodeNFA deterministically builds a small NFA from a byte stream and
// returns the remaining bytes. The layout is: one byte for the state
// count, one for the accept mask, one for the edge count, then three
// bytes (from, symbol, to) per edge. Every input decodes to a valid
// automaton, so the fuzzer explores structure rather than validity.
func decodeNFA(data []byte) (*NFA, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	a := NewNFA()
	n := int(next())%5 + 1
	for a.NumStates() < n {
		a.AddState()
	}
	mask := next()
	for s := 0; s < n; s++ {
		a.SetAccept(s, mask&(1<<(s%8)) != 0)
	}
	edges := int(next()) % 12
	for i := 0; i < edges; i++ {
		from := int(next()) % n
		sym := fuzzAlphabet[int(next())%len(fuzzAlphabet)]
		to := int(next()) % n
		a.AddEdge(from, sym, to)
	}
	return a, data
}

// shortestAcceptedLen returns the length of a shortest accepted word via
// level-order BFS over states, or -1 when the language is empty. It is an
// independent oracle for the BFS-minimality contract of AcceptingRun.
func shortestAcceptedLen(a *NFA) int {
	seen := make([]bool, a.NumStates())
	level := []int{a.Start()}
	seen[a.Start()] = true
	for depth := 0; len(level) > 0; depth++ {
		var next []int
		for _, s := range level {
			if a.Accepting(s) {
				return depth
			}
		}
		for _, s := range level {
			for _, sym := range fuzzAlphabet {
				for _, t := range a.Succ(s, sym) {
					if !seen[t] {
						seen[t] = true
						next = append(next, t)
					}
				}
			}
		}
		level = next
	}
	return -1
}

// shortlexFirst returns the first word of length at most bound, in
// shortlex order over fuzzAlphabet (shorter first, then alphabet order),
// that satisfies ok, or nil when none does. It is the brute-force oracle
// for the witnesses the automaton algebra extracts.
func shortlexFirst(bound int, ok func([]string) bool) []string {
	k := len(fuzzAlphabet)
	for n := 0; n <= bound; n++ {
		digits := make([]int, n)
		word := make([]string, n)
		for {
			for i, d := range digits {
				word[i] = fuzzAlphabet[d]
			}
			if ok(word) {
				return word
			}
			i := n - 1
			for i >= 0 && digits[i] == k-1 {
				digits[i] = 0
				i--
			}
			if i < 0 {
				break
			}
			digits[i]++
		}
	}
	return nil
}

// checkWitness checks a witness against its definition: ok holds of it,
// and it is the shortlex-least word satisfying ok, as far as a brute
// force over the words of length at most bound tells. A nil witness
// claims that no word satisfies ok.
func checkWitness(w []string, bound int, ok func([]string) bool) error {
	want := shortlexFirst(bound, ok)
	switch {
	case w == nil && want != nil:
		return fmt.Errorf("no witness, but %v qualifies", want)
	case w != nil && !ok(w):
		return fmt.Errorf("witness %v does not qualify", w)
	case w != nil && want != nil && !wordsEqual(w, want):
		return fmt.Errorf("witness %v, but %v qualifies and comes first in shortlex order", w, want)
	}
	return nil
}

// FuzzWitnessMinimal checks the witness-extraction contract on random
// automata: AcceptingRun returns an accepted word whose run replays edge
// by edge and which is BFS-minimal; the product witness (the shape
// SUSC014 and valid counterexamples take) is the shortlex-least word both
// operands accept, and Included's separating word the shortlex-least word
// the first accepts and the second rejects, both checked against the
// NFAs' Accepts by a bounded brute-force oracle.
func FuzzWitnessMinimal(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{3, 4, 3, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 1, 1, 0, 2, 1})
	f.Add([]byte{5, 16, 9, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0, 4, 4, 1, 0})
	f.Add(bytes.Repeat([]byte{7, 255, 11, 4}, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := decodeNFA(data)
		b, _ := decodeNFA(rest)

		for _, n := range []*NFA{a, b} {
			word, states := n.AcceptingRun()
			min := shortestAcceptedLen(n)
			if word == nil {
				if min >= 0 {
					t.Fatalf("AcceptingRun found nothing but a word of length %d is accepted\n%s", min, n)
				}
				if states != nil {
					t.Fatalf("nil word with non-nil states %v", states)
				}
				continue
			}
			if !n.Accepts(word) {
				t.Fatalf("witness %v is not accepted\n%s", word, n)
			}
			if len(word) != min {
				t.Fatalf("witness %v has length %d, BFS-shortest is %d\n%s", word, len(word), min, n)
			}
			if len(states) != len(word)+1 || states[0] != n.Start() || !n.Accepting(states[len(states)-1]) {
				t.Fatalf("run %v malformed for word %v", states, word)
			}
			for i, sym := range word {
				found := false
				for _, succ := range n.Succ(states[i], sym) {
					if succ == states[i+1] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("run step %d (%d -%s-> %d) is not an edge\n%s", i, states[i], sym, states[i+1], n)
				}
				if replay := n.RunFor(word); replay == nil {
					t.Fatalf("RunFor rejects the accepted witness %v", word)
				}
			}
		}

		da, db := a.Determinize(fuzzAlphabet), b.Determinize(fuzzAlphabet)
		both := func(w []string) bool { return a.Accepts(w) && b.Accepts(w) }
		if err := checkWitness(da.Intersect(db).AcceptingPath(), 5, both); err != nil {
			t.Fatalf("product witness: %v\n%s%s", err, a, b)
		}
		inc, sep := da.Included(db)
		onlyA := func(w []string) bool { return a.Accepts(w) && !b.Accepts(w) }
		if err := checkWitness(sep, 5, onlyA); err != nil || inc != (sep == nil) {
			t.Fatalf("Included = %v, %v: %v\n%s%s", inc, sep, err, a, b)
		}
	})
}
