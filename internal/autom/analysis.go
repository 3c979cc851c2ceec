package autom

import "sort"

// This file holds the NFA witness-extraction and analysis helpers the
// semantic analyzers (internal/lint) and the explainers build on: shortest
// accepting runs (not just words), run reconstruction for a given word and
// reachability/co-reachability over the state graph. Language inclusion
// runs on the determinised form (Compiled.Included).

// AcceptingRun returns a shortest accepted word together with the state
// sequence of one accepting run for it (len(states) == len(word)+1, states
// starting at the start state). Both are nil when the language is empty.
//
// The word is BFS-minimal: no strictly shorter word is accepted. Among
// equally short words the lexicographically-least successor is explored
// first, so the result is deterministic.
func (a *NFA) AcceptingRun() (word []string, states []int) {
	type pred struct {
		prev int // BFS-parent state, -1 for the start
		sym  string
	}
	parent := make([]pred, a.n)
	seen := make([]bool, a.n)
	queue := []int{a.start}
	seen[a.start] = true
	parent[a.start] = pred{prev: -1}
	goal := -1
	for len(queue) > 0 && goal < 0 {
		s := queue[0]
		queue = queue[1:]
		if a.accept[s] {
			goal = s
			break
		}
		syms := make([]string, 0, len(a.edges[s]))
		for sym := range a.edges[s] {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			for _, t := range a.edges[s][sym] {
				if !seen[t] {
					seen[t] = true
					parent[t] = pred{prev: s, sym: sym}
					queue = append(queue, t)
				}
			}
		}
	}
	if goal < 0 {
		return nil, nil
	}
	word = []string{} // non-nil even for the empty word: nil means "empty language"
	for s := goal; s >= 0; s = parent[s].prev {
		states = append(states, s)
		if parent[s].prev >= 0 {
			word = append(word, parent[s].sym)
		}
	}
	reverseStrings(word)
	reverseInts(states)
	return word, states
}

// RunFor returns the state sequence of one accepting run over the word
// (len == len(word)+1), or nil when the word is rejected. Among the
// accepting runs, the one threading through the smallest state indices is
// chosen, so the result is deterministic.
func (a *NFA) RunFor(word []string) []int {
	// layers[i] is the set of states reachable after word[:i].
	layers := make([][]int, len(word)+1)
	layers[0] = []int{a.start}
	cur := map[int]bool{a.start: true}
	for i, sym := range word {
		next := map[int]bool{}
		for s := range cur {
			for _, t := range a.edges[s][sym] {
				next[t] = true
			}
		}
		if len(next) == 0 {
			return nil
		}
		layers[i+1] = setToSorted(next)
		cur = next
	}
	// pick the smallest accepting final state, then walk backwards choosing
	// the smallest predecessor with an edge on the layer's symbol.
	final := -1
	for _, s := range layers[len(word)] {
		if a.accept[s] {
			final = s
			break
		}
	}
	if final < 0 {
		return nil
	}
	states := make([]int, len(word)+1)
	states[len(word)] = final
	for i := len(word) - 1; i >= 0; i-- {
		sym := word[i]
		states[i] = -1
		for _, s := range layers[i] {
			for _, t := range a.edges[s][sym] {
				if t == states[i+1] {
					states[i] = s
					break
				}
			}
			if states[i] >= 0 {
				break
			}
		}
		if states[i] < 0 {
			return nil // unreachable: layers are forward-consistent
		}
	}
	return states
}

// Reachable returns, per state, whether it is reachable from the start
// state.
func (a *NFA) Reachable() []bool {
	seen := make([]bool, a.n)
	stack := []int{a.start}
	seen[a.start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range a.edges[s] {
			for _, t := range m {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	return seen
}

// Coreachable returns, per state, whether some accepting state is
// reachable from it (accepting states are co-reachable by definition).
// States that are not co-reachable are inert: entering one can never
// contribute to acceptance.
func (a *NFA) Coreachable() []bool {
	// reverse adjacency
	rev := make([][]int, a.n)
	for s := 0; s < a.n; s++ {
		for _, m := range a.edges[s] {
			for _, t := range m {
				rev[t] = append(rev[t], s)
			}
		}
	}
	out := make([]bool, a.n)
	var stack []int
	for s := range a.accept {
		if a.accept[s] {
			out[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// WordTo returns a shortest word driving the automaton from the start
// state to the given state, with the state sequence of the run, or
// (nil, nil) when the state is unreachable. A reachable state yields
// states == [start … target] and len(word) == len(states)-1; for the
// start state itself the word is empty and states == [start].
func (a *NFA) WordTo(target int) (word []string, states []int) {
	type pred struct {
		prev int
		sym  string
	}
	parent := make([]pred, a.n)
	seen := make([]bool, a.n)
	queue := []int{a.start}
	seen[a.start] = true
	parent[a.start] = pred{prev: -1}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == target {
			for x := s; x >= 0; x = parent[x].prev {
				states = append(states, x)
				if parent[x].prev >= 0 {
					word = append(word, parent[x].sym)
				}
			}
			reverseStrings(word)
			reverseInts(states)
			if word == nil {
				word = []string{}
			}
			return word, states
		}
		syms := make([]string, 0, len(a.edges[s]))
		for sym := range a.edges[s] {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			for _, t := range a.edges[s][sym] {
				if !seen[t] {
					seen[t] = true
					parent[t] = pred{prev: s, sym: sym}
					queue = append(queue, t)
				}
			}
		}
	}
	return nil, nil
}

func setToSorted(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func reverseStrings(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
