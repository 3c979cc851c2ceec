// Package autom is a small finite-automata toolkit over string alphabets:
// NFAs, and their determinisation into dense complete DFAs (Compiled) with
// products, complement, emptiness, inclusion and shortest witnesses. It is
// the model-checking substrate used to decide the safety properties the
// paper reduces everything to — validity of histories against usage
// automata (internal/valid) and compliance via the product automaton
// (internal/compliance). It plays the role of the LocUsT tool referenced
// by the paper.
package autom

import (
	"fmt"
	"sort"
	"strings"
)

// NFA is a nondeterministic finite automaton over a string alphabet.
// States are dense integers; state 0 exists once a state has been added.
// ε-transitions are not supported (none of the constructions here need
// them).
type NFA struct {
	n      int
	start  int
	accept map[int]bool
	// edges[from][symbol] = set of targets
	edges []map[string][]int
}

// NewNFA returns an empty automaton with a single non-accepting start
// state 0.
func NewNFA() *NFA {
	a := &NFA{accept: map[int]bool{}}
	a.AddState()
	return a
}

// AddState adds a fresh state and returns its index.
func (a *NFA) AddState() int {
	a.edges = append(a.edges, map[string][]int{})
	a.n++
	return a.n - 1
}

// NumStates returns the number of states.
func (a *NFA) NumStates() int { return a.n }

// Start returns the start state.
func (a *NFA) Start() int { return a.start }

// SetStart sets the start state.
func (a *NFA) SetStart(s int) { a.start = s }

// SetAccept marks s as accepting (or not).
func (a *NFA) SetAccept(s int, accepting bool) {
	if accepting {
		a.accept[s] = true
	} else {
		delete(a.accept, s)
	}
}

// Accepting reports whether s is an accepting state.
func (a *NFA) Accepting(s int) bool { return a.accept[s] }

// AddEdge adds a transition from→to on symbol.
func (a *NFA) AddEdge(from int, symbol string, to int) {
	for _, t := range a.edges[from][symbol] {
		if t == to {
			return
		}
	}
	a.edges[from][symbol] = append(a.edges[from][symbol], to)
}

// Succ returns the successors of s on symbol.
func (a *NFA) Succ(s int, symbol string) []int { return a.edges[s][symbol] }

// Alphabet returns the sorted set of symbols with at least one edge.
func (a *NFA) Alphabet() []string {
	set := map[string]bool{}
	for _, m := range a.edges {
		for sym := range m {
			set[sym] = true
		}
	}
	out := make([]string, 0, len(set))
	for sym := range set {
		out = append(out, sym)
	}
	sort.Strings(out)
	return out
}

// Accepts reports whether the automaton accepts the given word.
func (a *NFA) Accepts(word []string) bool {
	cur := map[int]bool{a.start: true}
	for _, sym := range word {
		next := map[int]bool{}
		for s := range cur {
			for _, t := range a.edges[s][sym] {
				next[t] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for s := range cur {
		if a.accept[s] {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the accepted language is empty, i.e. no accepting
// state is reachable from the start state.
func (a *NFA) IsEmpty() bool {
	seen := make([]bool, a.n)
	stack := []int{a.start}
	seen[a.start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.accept[s] {
			return false
		}
		for _, m := range a.edges[s] {
			for _, t := range m {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	return true
}

// AcceptingPath returns a shortest word leading from the start state to an
// accepting state, or nil when the language is empty. It is the
// counterexample extractor of the model checkers built on this package;
// AcceptingRun additionally reconstructs the state sequence.
func (a *NFA) AcceptingPath() []string {
	word, _ := a.AcceptingRun()
	return word
}

func (a *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA(%d states, start %d)\n", a.n, a.start)
	for s := 0; s < a.n; s++ {
		mark := " "
		if a.accept[s] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s q%d:", mark, s)
		syms := make([]string, 0, len(a.edges[s]))
		for sym := range a.edges[s] {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			fmt.Fprintf(&b, " %s->%v", sym, a.edges[s][sym])
		}
		b.WriteString("\n")
	}
	return b.String()
}
