package autom

import (
	"slices"
	"sort"
)

// Compiled is a complete deterministic automaton over an explicit
// alphabet, in dense tables: a state-major []int32 transition table
// indexed by (state, symbol index) and the accepting set as a []uint64
// bitset. Every operation here — stepping, products, reachability,
// witness extraction — indexes arrays; no maps, no string keys. It is
// the automaton SUSC014/SUSC018 inclusion checks and valid.ModelCheck
// intersections run on.
type Compiled struct {
	// Alphabet is the sorted symbol set.
	Alphabet []string
	// Trans is the state-major transition table: Trans[s*K+a] is the
	// successor of state s on Alphabet[a].
	Trans []int32
	// Accept is the accepting-state bitset (word i bit j = state i*64+j).
	Accept []uint64
	// Start is the initial state.
	Start int32
	// N and K are the state and symbol counts.
	N, K int32
}

// Determinize converts the NFA to an equivalent complete deterministic
// automaton via the subset construction, over the given alphabet
// (defaulting to the NFA's own alphabet when alphabet is nil). Subsets
// are numbered in discovery order from {start}, symbols taken in
// alphabet order, and the empty subset is the rejecting sink, so equal
// inputs give identical tables.
func (a *NFA) Determinize(alphabet []string) *Compiled {
	if alphabet == nil {
		alphabet = a.Alphabet()
	} else {
		alphabet = append([]string(nil), alphabet...)
		sort.Strings(alphabet)
	}
	c := &Compiled{Alphabet: alphabet, K: int32(len(alphabet))}
	idx := subsetIndex{buckets: map[uint64][]int32{}}
	add := func(set []int32) int32 {
		i, fresh := idx.add(set)
		if fresh {
			if int(i)>>6 >= len(c.Accept) {
				c.Accept = append(c.Accept, 0)
			}
			for _, s := range set {
				if a.accept[int(s)] {
					c.Accept[i>>6] |= 1 << (uint(i) & 63)
					break
				}
			}
		}
		return i
	}
	c.Start = add([]int32{int32(a.start)})
	// Target sets are collected through an epoch-stamped mark array and a
	// reusable buffer — no per-symbol map or string key allocations.
	mark := make([]int, a.n)
	epoch := 0
	var target []int32
	for i := 0; i < len(idx.sets); i++ {
		for _, sym := range alphabet {
			epoch++
			target = target[:0]
			for _, s := range idx.sets[i] {
				for _, t := range a.edges[s][sym] {
					if mark[t] != epoch {
						mark[t] = epoch
						target = append(target, int32(t))
					}
				}
			}
			slices.Sort(target)
			c.Trans = append(c.Trans, add(target)) // empty set becomes the rejecting sink
		}
	}
	c.N = int32(len(idx.sets))
	return c
}

// subsetIndex maps canonical (sorted) state sets to dense state ids.
// Sets are hashed with FNV-1a over their int32 elements and compared
// structurally on collision, so interning a set allocates nothing unless
// the set is new.
type subsetIndex struct {
	buckets map[uint64][]int32 // hash -> candidate set ids
	sets    [][]int32
}

// fnvInt32s hashes a sorted int32 slice with FNV-1a.
func fnvInt32s(set []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range set {
		u := uint32(s)
		h = (h ^ uint64(u&0xff)) * 1099511628211
		h = (h ^ uint64((u>>8)&0xff)) * 1099511628211
		h = (h ^ uint64((u>>16)&0xff)) * 1099511628211
		h = (h ^ uint64(u>>24)) * 1099511628211
	}
	return h
}

// add interns the sorted set, returning its id and whether it was new.
// The set is copied when new; callers may reuse the backing slice.
func (x *subsetIndex) add(set []int32) (int32, bool) {
	h := fnvInt32s(set)
	for _, id := range x.buckets[h] {
		if slices.Equal(x.sets[id], set) {
			return id, false
		}
	}
	id := int32(len(x.sets))
	x.sets = append(x.sets, append([]int32(nil), set...))
	x.buckets[h] = append(x.buckets[h], id)
	return id, true
}

// NumStates returns the number of states.
func (c *Compiled) NumStates() int { return int(c.N) }

// SymIndex returns the index of sym in the alphabet, or -1.
func (c *Compiled) SymIndex(sym string) int {
	i := sort.SearchStrings(c.Alphabet, sym)
	if i < len(c.Alphabet) && c.Alphabet[i] == sym {
		return i
	}
	return -1
}

// Step returns the successor of state s on symbol index a.
func (c *Compiled) Step(s int32, a int) int32 { return c.Trans[int(s)*int(c.K)+a] }

// Accepting reports whether state s is accepting (bitset membership).
func (c *Compiled) Accepting(s int32) bool {
	return c.Accept[s>>6]&(1<<(uint(s)&63)) != 0
}

// Accepts reports whether the word is accepted. Symbols outside the
// alphabet reject.
func (c *Compiled) Accepts(word []string) bool {
	s := c.Start
	for _, sym := range word {
		a := c.SymIndex(sym)
		if a < 0 {
			return false
		}
		s = c.Trans[int(s)*int(c.K)+a]
	}
	return c.Accepting(s)
}

// Complement returns the compiled automaton with the accepting set
// flipped (sharing the transition table).
func (c *Compiled) Complement() *Compiled {
	out := &Compiled{Alphabet: c.Alphabet, Trans: c.Trans, Start: c.Start, N: c.N, K: c.K}
	out.Accept = make([]uint64, len(c.Accept))
	for i, w := range c.Accept {
		out.Accept[i] = ^w
	}
	// mask the tail beyond state N-1
	if tail := uint(c.N) & 63; tail != 0 && len(out.Accept) > 0 {
		out.Accept[len(out.Accept)-1] &= (1 << tail) - 1
	}
	return out
}

// maxDensePairs bounds the n1*n2 visited array Product allocates; larger
// products fall back to a map keyed on the packed pair.
const maxDensePairs = 1 << 22

// Product returns the synchronous product with the given acceptance
// combiner. The alphabets must be equal. States are numbered in BFS
// discovery order from the start pair, symbols taken in alphabet order,
// so equal operands give identical products and witnesses.
func (c *Compiled) Product(e *Compiled, both func(a, b bool) bool) *Compiled {
	if c.K != e.K {
		panic("autom: product over different alphabets")
	}
	for i := range c.Alphabet {
		if c.Alphabet[i] != e.Alphabet[i] {
			panic("autom: product over different alphabets")
		}
	}
	k := int(c.K)
	out := &Compiled{Alphabet: c.Alphabet, K: c.K}
	total := int64(c.N) * int64(e.N)
	var denseIdx []int32 // pair -> product state + 1, 0 = unseen
	var mapIdx map[uint64]int32
	if total > 0 && total <= maxDensePairs {
		denseIdx = make([]int32, total)
	} else {
		mapIdx = make(map[uint64]int32, 64)
	}
	lookup := func(pk uint64) (int32, bool) {
		if denseIdx != nil {
			v := denseIdx[pk]
			return v - 1, v != 0
		}
		v, ok := mapIdx[pk]
		return v, ok
	}
	store := func(pk uint64, i int32) {
		if denseIdx != nil {
			denseIdx[pk] = i + 1
		} else {
			mapIdx[pk] = i
		}
	}
	type pair struct{ a, b int32 }
	var pairs []pair
	add := func(a, b int32) int32 {
		pk := uint64(a)*uint64(e.N) + uint64(b)
		if i, ok := lookup(pk); ok {
			return i
		}
		i := int32(len(pairs))
		store(pk, i)
		pairs = append(pairs, pair{a, b})
		if both(c.Accepting(a), e.Accepting(b)) {
			for int(i)>>6 >= len(out.Accept) {
				out.Accept = append(out.Accept, 0)
			}
			out.Accept[i>>6] |= 1 << (uint(i) & 63)
		}
		return i
	}
	add(c.Start, e.Start)
	for i := 0; i < len(pairs); i++ {
		p := pairs[i]
		for a := 0; a < k; a++ {
			out.Trans = append(out.Trans, add(c.Trans[int(p.a)*k+a], e.Trans[int(p.b)*k+a]))
		}
	}
	out.N = int32(len(pairs))
	for int(out.N+63)>>6 > len(out.Accept) {
		out.Accept = append(out.Accept, 0)
	}
	return out
}

// Intersect returns the compiled product for L(c) ∩ L(e).
func (c *Compiled) Intersect(e *Compiled) *Compiled {
	return c.Product(e, func(a, b bool) bool { return a && b })
}

// Difference returns the compiled product for L(c) ∖ L(e).
func (c *Compiled) Difference(e *Compiled) *Compiled {
	return c.Intersect(e.Complement())
}

// Reachable returns the bitset of states reachable from the start state.
func (c *Compiled) Reachable() []uint64 {
	seen := make([]uint64, (int(c.N)+63)/64)
	if c.N == 0 {
		return seen
	}
	stack := make([]int32, 0, 16)
	seen[c.Start>>6] |= 1 << (uint(c.Start) & 63)
	stack = append(stack, c.Start)
	k := int(c.K)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := c.Trans[int(s)*k : int(s)*k+k]
		for _, t := range row {
			if seen[t>>6]&(1<<(uint(t)&63)) == 0 {
				seen[t>>6] |= 1 << (uint(t) & 63)
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// Coreachable returns the bitset of states from which some accepting
// state is reachable, computed over CSR preimage lists.
func (c *Compiled) Coreachable() []uint64 {
	n, k := int(c.N), int(c.K)
	out := make([]uint64, (n+63)/64)
	if n == 0 {
		return out
	}
	// preimage CSR over all symbols at once
	off := make([]int32, n+1)
	for _, t := range c.Trans {
		off[t+1]++
	}
	for t := 0; t < n; t++ {
		off[t+1] += off[t]
	}
	lst := make([]int32, len(c.Trans))
	fill := append([]int32(nil), off...)
	for s := 0; s < n; s++ {
		for a := 0; a < k; a++ {
			t := c.Trans[s*k+a]
			lst[fill[t]] = int32(s)
			fill[t]++
		}
	}
	var stack []int32
	for s := 0; s < n; s++ {
		if c.Accepting(int32(s)) {
			out[s>>6] |= 1 << (uint(s) & 63)
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := off[t]; j < off[t+1]; j++ {
			s := lst[j]
			if out[s>>6]&(1<<(uint(s)&63)) == 0 {
				out[s>>6] |= 1 << (uint(s) & 63)
				stack = append(stack, s)
			}
		}
	}
	return out
}

// IsEmpty reports whether the accepted language is empty (no accepting
// state is reachable).
func (c *Compiled) IsEmpty() bool {
	reach := c.Reachable()
	for i, w := range reach {
		if i < len(c.Accept) && w&c.Accept[i] != 0 {
			return false
		}
	}
	return true
}

// AcceptingPath returns a BFS-shortest accepted word, or nil when the
// language is empty. The BFS visits states in the shortlex order of
// their least words, so the result is the shortlex-least accepted word.
func (c *Compiled) AcceptingPath() []string {
	word, _ := c.AcceptingRun()
	return word
}

// AcceptingRun returns a shortest accepted word with its state run, or
// (nil, nil) when the language is empty.
func (c *Compiled) AcceptingRun() (word []string, states []int) {
	n, k := int(c.N), int(c.K)
	if n == 0 {
		return nil, nil
	}
	parent := make([]int32, n) // BFS parent state
	psym := make([]int32, n)   // symbol index taken into the state
	seen := make([]uint64, (n+63)/64)
	queue := make([]int32, 0, 16)
	seen[c.Start>>6] |= 1 << (uint(c.Start) & 63)
	parent[c.Start] = -1
	queue = append(queue, c.Start)
	goal := int32(-1)
	for qi := 0; qi < len(queue) && goal < 0; qi++ {
		s := queue[qi]
		if c.Accepting(s) {
			goal = s
			break
		}
		row := c.Trans[int(s)*k : int(s)*k+k]
		for a, t := range row {
			if seen[t>>6]&(1<<(uint(t)&63)) == 0 {
				seen[t>>6] |= 1 << (uint(t) & 63)
				parent[t] = s
				psym[t] = int32(a)
				queue = append(queue, t)
			}
		}
	}
	if goal < 0 {
		return nil, nil
	}
	word = []string{} // non-nil even for the empty word: nil means "empty language"
	for s := goal; s >= 0; s = parent[s] {
		states = append(states, int(s))
		if parent[s] >= 0 {
			word = append(word, c.Alphabet[psym[s]])
		}
	}
	reverseStrings(word)
	reverseInts(states)
	return word, states
}

// Included decides language inclusion L(c) ⊆ L(e) via emptiness of the
// difference; when inclusion fails the second result is the
// shortlex-least separating word: accepted by c, rejected by e.
func (c *Compiled) Included(e *Compiled) (bool, []string) {
	sep := c.Difference(e).AcceptingPath()
	return sep == nil, sep
}
