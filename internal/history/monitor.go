package history

import (
	"strconv"

	"susc/internal/hexpr"
	"susc/internal/policy"
)

// Monitor is the incremental run-time validity monitor: it consumes history
// items one at a time and reports, in O(#policies) per item, whether the
// history so far is valid. It maintains, for every policy of the table, the
// state set reached by the policy automaton on the *whole* flat history —
// the approach is history-dependent, so automata run from the very first
// event even when the policy is activated later.
//
// The paper's programme is to make this monitor unnecessary: a plan
// validated by internal/verify never trips it. Benchmarks compare monitored
// and unmonitored execution.
//
// Framing closes are matched against openings as a multiset (the active
// multiset AP), not as a strict stack: in a network, the two parties of a
// session log framings into the same shared history, so openings and
// closings of *different* policies may cross even though each party's own
// framings are well-nested. Validity only depends on AP, which is
// multiset-based, so this is exactly the paper's judgement.
//
// The monitor runs on the dense compiled view of the table
// (policy.CompiledTable): state sets and activation counts are slices
// indexed by the table's sorted policy order, and event stepping goes
// through compiled per-event rows instead of guard closures.
type Monitor struct {
	table   *policy.Table
	ct      *policy.CompiledTable
	states  []policy.StateSet // indexed by ct position
	active  []int32           // activation multiset, same indexing
	scratch []policy.StateSet // Append scratch: tentative next states
	opened  int               // count of trivial-policy frames currently open
	length  int
	sig     string // cached Signature ("" = stale); state changes invalidate
}

// NewMonitor builds a monitor over the given policy table.
func NewMonitor(table *policy.Table) *Monitor {
	ct := table.Compiled()
	m := &Monitor{
		table:   table,
		ct:      ct,
		states:  make([]policy.StateSet, ct.Len()),
		active:  make([]int32, ct.Len()),
		scratch: make([]policy.StateSet, ct.Len()),
	}
	for i := 0; i < ct.Len(); i++ {
		m.states[i] = ct.At(i).Initial()
	}
	return m
}

// Len returns the number of items consumed so far.
func (m *Monitor) Len() int { return m.length }

// Active returns the multiset of currently active policies.
func (m *Monitor) Active() map[hexpr.PolicyID]int {
	out := make(map[hexpr.PolicyID]int)
	for i, n := range m.active {
		if n > 0 {
			out[m.ct.IDs()[i]] = int(n)
		}
	}
	return out
}

// ActiveMask returns the activation multiset collapsed to a bitmask over
// the compiled table's sorted policy order: bit i is set iff policy i is
// active at least once. Tables with more than 64 policies cannot be
// represented; callers needing the mask must check the table size first.
func (m *Monitor) ActiveMask() uint64 {
	var mask uint64
	for i, n := range m.active {
		if n > 0 && i < 64 {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Append consumes one history item. It returns a *ViolationError when the
// extended history is invalid, a *NestingError when a framing action is
// ill-nested, and nil otherwise. After an error the monitor state is
// unchanged (the offending item is not recorded), matching the semantics in
// which invalid moves simply cannot be taken.
func (m *Monitor) Append(it Item) error {
	switch it.Kind {
	case ItemEvent:
		// Events whose name no automaton watches self-loop every state:
		// nothing changes, and active policies cannot newly violate (the
		// invariant that active policies are never in final states is
		// maintained by the open/event cases below).
		if m.ct.WatchedMask(it.Event.Name) == 0 {
			break
		}
		// Tentatively step every automaton, then check active policies.
		for i := range m.states {
			m.scratch[i] = m.ct.At(i).Step(m.states[i], it.Event)
		}
		for i, n := range m.active {
			if n <= 0 {
				continue
			}
			if m.ct.At(i).Final(m.scratch[i]) {
				return &ViolationError{Policy: m.ct.IDs()[i], At: m.length + 1}
			}
		}
		copy(m.states, m.scratch)
		m.sig = ""
	case ItemFrameOpen:
		if it.Policy == hexpr.NoPolicy {
			m.opened++
			m.sig = ""
			break
		}
		i := m.ct.Index(it.Policy)
		if i < 0 {
			return &ViolationError{Policy: it.Policy, At: m.length + 1}
		}
		// History dependence: the past must already respect the newly
		// activated policy.
		if m.ct.At(int(i)).Final(m.states[i]) {
			return &ViolationError{Policy: it.Policy, At: m.length + 1}
		}
		m.active[i]++
		m.sig = ""
	case ItemFrameClose:
		if it.Policy == hexpr.NoPolicy {
			if m.opened == 0 {
				return &NestingError{Item: it}
			}
			m.opened--
			m.sig = ""
			break
		}
		i := m.ct.Index(it.Policy)
		if i < 0 || m.active[i] == 0 {
			return &NestingError{Item: it}
		}
		m.active[i]--
		m.sig = ""
	}
	m.length++
	return nil
}

// AppendAll consumes a whole history, stopping at the first error.
func (m *Monitor) AppendAll(h History) error {
	for _, it := range h {
		if err := m.Append(it); err != nil {
			return err
		}
	}
	return nil
}

// Signature returns a canonical string of the monitor's abstract state —
// the policy-automaton state sets and the active multiset, but not the
// history length. Two monitors with equal signatures accept exactly the
// same future histories, which is what makes state-space exploration
// finite (internal/verify keys configurations on it).
// The signature is cached between calls and invalidated only by state
// changes; the policy order is the compiled table's sorted order, so no
// per-call sorting happens.
func (m *Monitor) Signature() string {
	if m.sig != "" {
		return m.sig
	}
	ids := m.ct.IDs()
	buf := make([]byte, 0, 8+16*len(ids))
	for i, id := range ids {
		buf = append(buf, id...)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(m.states[i]), 16)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(m.active[i]), 10)
		buf = append(buf, ';')
	}
	buf = append(buf, '#')
	buf = strconv.AppendInt(buf, int64(m.opened), 10)
	m.sig = string(buf)
	return m.sig
}

// Snapshot returns a deep copy of the monitor, so explorations can branch.
func (m *Monitor) Snapshot() *Monitor {
	out := &Monitor{
		table:   m.table,
		ct:      m.ct,
		states:  append([]policy.StateSet(nil), m.states...),
		active:  append([]int32(nil), m.active...),
		scratch: make([]policy.StateSet, len(m.scratch)),
		opened:  m.opened,
		length:  m.length,
		sig:     m.sig,
	}
	return out
}
