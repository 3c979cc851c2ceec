package policy

import (
	"math/bits"
	"sort"

	"susc/internal/hexpr"
)

// Compiled stepping. An instantiated usage automaton is interpreted
// guard-by-guard in Next; the hot paths (Monitor.Append, valid.Check, the
// fused engine) instead step through per-event rows compiled on first use:
// row[i] is the full successor set of state i on a concrete event,
// including the implicit self-loop, so stepping a state set is a bit-scan
// and a few OR instructions with no closure calls.

// stepRow is the compiled transition of an instance on one concrete
// event: stepRow[i] is the successor set of state i.
type stepRow []StateSet

// rowEntry pairs the concrete arguments with their compiled row; rows are
// bucketed by event name and the few argument vectors per name are found
// by linear structural comparison (hexpr.Value is a comparable struct).
type rowEntry struct {
	args []hexpr.Value
	row  stepRow
}

// row returns the compiled transition row for the event, building and
// caching it on first use. Safe for concurrent use.
func (in *Instance) row(ev hexpr.Event) stepRow {
	in.rowMu.RLock()
	for _, e := range in.rows[ev.Name] {
		if valuesEqual(e.args, ev.Args) {
			in.rowMu.RUnlock()
			return e.row
		}
	}
	in.rowMu.RUnlock()
	n := len(in.a.States)
	row := make(stepRow, n)
	for i := 0; i < n; i++ {
		var next StateSet
		moved := false
		for _, e := range in.edges {
			if e.from != i || e.event != ev.Name || e.arity != len(ev.Args) {
				continue
			}
			ok, err := e.match(ev.Args)
			if err != nil {
				// Unbound parameters are rejected at instantiation; stay put
				// rather than panic (mirrors the interpreted path).
				continue
			}
			if ok {
				next |= 1 << uint(e.to)
				moved = true
			}
		}
		if !moved {
			next = 1 << uint(i)
		}
		row[i] = next
	}
	in.rowMu.Lock()
	defer in.rowMu.Unlock()
	for _, e := range in.rows[ev.Name] {
		if valuesEqual(e.args, ev.Args) {
			return e.row
		}
	}
	if in.rows == nil {
		in.rows = map[string][]rowEntry{}
	}
	in.rows[ev.Name] = append(in.rows[ev.Name],
		rowEntry{args: append([]hexpr.Value(nil), ev.Args...), row: row})
	return row
}

func valuesEqual(a, b []hexpr.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stepCompiled advances a state set through the compiled row.
func stepCompiled(row stepRow, s StateSet) StateSet {
	var next StateSet
	for rem := uint64(s); rem != 0; rem &= rem - 1 {
		next |= row[bits.TrailingZeros64(rem)]
	}
	return next
}

// CompiledTable is the dense, spec-load-time view of a Table: policy
// identifiers sorted once, instances indexed densely, and a watched-event
// index mapping event names to the bitmask of instances with an edge on
// that name. Monitors run on these arrays instead of per-call maps, and
// inertness becomes a bitset membership test: an event whose name no
// automaton watches provably self-loops every state.
type CompiledTable struct {
	ids       []hexpr.PolicyID
	instances []*Instance
	index     map[hexpr.PolicyID]int32
	watched   map[string]uint64
	over      bool // more than 64 instances: masks saturate (conservative)
}

// Compiled returns the dense view of the table, built on first use and
// invalidated by Add. Safe for concurrent use.
func (t *Table) Compiled() *CompiledTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.compiled != nil {
		return t.compiled
	}
	ct := &CompiledTable{
		index:   make(map[hexpr.PolicyID]int32, len(t.m)),
		watched: map[string]uint64{},
	}
	for id := range t.m {
		ct.ids = append(ct.ids, id)
	}
	sort.Slice(ct.ids, func(i, j int) bool { return ct.ids[i] < ct.ids[j] })
	ct.over = len(ct.ids) > 64
	for i, id := range ct.ids {
		in := t.m[id]
		ct.instances = append(ct.instances, in)
		ct.index[id] = int32(i)
		bit := uint64(0)
		if !ct.over {
			bit = 1 << uint(i)
		}
		for _, e := range in.edges {
			if ct.over {
				ct.watched[e.event] = ^uint64(0)
			} else {
				ct.watched[e.event] |= bit
			}
		}
	}
	t.compiled = ct
	return ct
}

// Len returns the number of instances.
func (ct *CompiledTable) Len() int { return len(ct.instances) }

// IDs returns the sorted policy identifiers (shared; do not mutate).
func (ct *CompiledTable) IDs() []hexpr.PolicyID { return ct.ids }

// At returns the instance at dense index i.
func (ct *CompiledTable) At(i int) *Instance { return ct.instances[i] }

// Index returns the dense index of id, or -1 when unknown.
func (ct *CompiledTable) Index(id hexpr.PolicyID) int32 {
	if i, ok := ct.index[id]; ok {
		return i
	}
	return -1
}

// WatchedMask returns the bitmask of instances with an edge on the event
// name; zero means no automaton can move on any event of that name, at
// any arity. With more than 64 instances the mask saturates to all-ones
// for watched names, staying conservative.
func (ct *CompiledTable) WatchedMask(name string) uint64 {
	if len(ct.watched) == 0 {
		return 0
	}
	return ct.watched[name]
}
