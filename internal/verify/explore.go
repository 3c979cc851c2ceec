package verify

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/intern"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/ring"
)

// This file is the one exploration kernel: a breadth-first search of the
// Def. 2 network semantics over a vector of components — per component a
// session tree and a history monitor — plus the availability vector the
// components share. CheckPlanOpts is its one-component call, CheckNetwork
// its n-component call, and ExploreFlow a one-component call that feeds a
// FlowRecorder.

// component is one client's share of a configuration.
type component struct {
	tree network.Node
	mon  *history.Monitor
}

// xstate is one discovered configuration waiting in the queue.
type xstate struct {
	comps []component
	avail []int
	trace *traceNode
}

// stateKey is the comparable visited-set key of one configuration: the
// first component's interned session tree and monitor signature, and the
// number the exploration gave the packed IDs of the other components and
// the availability vector — 0 for one component with unbounded
// availability, the common case.
type stateKey struct {
	tree intern.ID
	sig  intern.ID
	rest uint32
}

// internTree interns a session tree bottom-up in the same ID space as the
// expressions it contains, so tree equality is one ID comparison. Leaves
// and pairs are interned as tagged ID pairs (intern.Node) — no key string
// is ever built.
func internTree(tab *intern.Table, n network.Node) intern.ID {
	switch t := n.(type) {
	case network.Leaf:
		return tab.Node('L', tab.Key(string(t.Loc)), tab.Expr(t.Expr))
	case network.Pair:
		return tab.Node('P', internTree(tab, t.Left), internTree(tab, t.Right))
	}
	panic("verify: unknown tree node")
}

// traceNode is the exploration's one trace representation, a persistent
// (shared-tail) trace: the BFS-tree edge that discovered a state, linked
// to its parent's, and the state's discovery index. The initial state's
// node is the root, with no entry and no prev. Every counterexample and
// every flow witness is a node's chain back to the root.
type traceNode struct {
	prev  *traceNode
	idx   int32
	entry network.TraceEntry
}

// materialize returns the trace to the node's state, oldest entry first.
func (n *traceNode) materialize() []network.TraceEntry {
	depth := 0
	for p := n; p.prev != nil; p = p.prev {
		depth++
	}
	out := make([]network.TraceEntry, depth)
	for p := n; p.prev != nil; p = p.prev {
		depth--
		out[depth] = p.entry
	}
	return out
}

// errStateLimit reports an exploration past MaxStates; each caller words
// it for its own analysis.
var errStateLimit = errors.New("verify: state limit exceeded")

// explorer is one run of the kernel. flow, when set on a one-component
// run, observes it: every newly discovered state, the initial one
// included; every history item a move logs; and every move, from its
// source state's discovery index to its (possibly already known)
// target's.
type explorer struct {
	repo   network.Repository
	comps  []ClientSpec
	cache  *memo.Cache
	budget *budget.Budget
	flow   *FlowRecorder

	tab   *intern.Table
	moves [][]network.Move // the expanded state's moves, per component
	rests map[string]uint32
	buf   []byte // key scratch
}

// run explores the network from every component's initial leaf under an
// empty history, with the bounded locations of caps tracked in a dense
// availability vector. It stops at the first security violation or stuck
// configuration, and on budget exhaustion with an Unknown report; Valid
// means the whole space was explored. Past MaxStates it returns
// errStateLimit.
func (x *explorer) run(table *policy.Table, caps map[hexpr.Location]int) (*Report, error) {
	x.tab = x.cache.Interner()
	var limited []hexpr.Location
	for l := range caps {
		limited = append(limited, l)
	}
	sort.Slice(limited, func(i, j int) bool { return limited[i] < limited[j] })
	limitedIdx := make(map[hexpr.Location]int, len(limited))
	start := xstate{avail: make([]int, len(limited))}
	for i, l := range limited {
		limitedIdx[l] = i
		start.avail[i] = caps[l]
	}
	for _, c := range x.comps {
		start.comps = append(start.comps,
			component{tree: network.Leaf{Loc: c.Loc, Expr: c.Client}, mon: history.NewMonitor(table)})
	}
	start.trace = &traceNode{}
	if x.flow != nil {
		x.flow.State(-1, nil, start.comps[0].mon)
	}
	// The queue is a ring buffer: `queue = queue[1:]` would pin the whole
	// backing array — every state ever enqueued — until the exploration
	// ends, while the ring reuses dequeued slots and keeps only the
	// frontier live.
	seen := map[stateKey]int32{x.key(start.comps, -1, component{}, start.avail): 0}
	var queue ring.Queue[xstate]
	queue.Push(start)
	report := &Report{}
	for queue.Len() > 0 {
		report.States++
		if report.States > MaxStates {
			return nil, errStateLimit
		}
		if e := x.budget.ConsumeStates(1); e != nil {
			report.States--
			return unknownReport(report, e, queue.Len()), nil
		}
		s := queue.Pop()
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.VerifyState, treeKeys(s.comps))
		}
		enabled, done := 0, true
		x.moves = x.moves[:0]
		for ci, c := range s.comps {
			moves := network.TreeMovesStep(c.tree, x.comps[ci].Plan, x.repo, x.cache.Steps)
			if len(limited) > 0 {
				// an open on a location with no replica left is not enabled
				all := moves
				moves = nil
				for _, m := range all {
					if i, ok := limitedIdx[m.OpenLoc]; ok && m.OpenLoc != "" && s.avail[i] == 0 {
						continue
					}
					moves = append(moves, m)
				}
			}
			x.moves = append(x.moves, moves)
			enabled += len(moves)
			done = done && network.Done(c.tree)
		}
		if e := x.budget.ConsumeEdges(int64(enabled)); e != nil {
			return unknownReport(report, e, queue.Len()), nil
		}
		if enabled == 0 && !done {
			report.Verdict = CommunicationDeadlock
			report.Trace = s.trace.materialize()
			report.StuckTree = treeKeys(s.comps)
			return report, nil
		}
		for ci, moves := range x.moves {
			for mi := range moves {
				m := &moves[mi]
				entry := network.TraceEntry{Comp: ci, Label: m.Label}
				// Item-less moves (synchronisations) leave the monitor
				// untouched; sharing it avoids a copy per move. Monitors
				// are only ever advanced on fresh snapshots, so sharing
				// is safe.
				mon := s.comps[ci].mon
				if len(m.Items) > 0 {
					mon = mon.Snapshot()
					for _, it := range m.Items {
						if x.flow != nil {
							x.flow.Item(s.trace.idx, &m.Label, s.comps[ci].mon, it)
						}
						if err := mon.Append(it); err != nil {
							verr, ok := err.(*history.ViolationError)
							if !ok {
								return nil, fmt.Errorf("verify: unexpected monitor error: %w", err)
							}
							report.Verdict = SecurityViolation
							report.Policy = verr.Policy
							report.Trace = (&traceNode{prev: s.trace, entry: entry}).materialize()
							return report, nil
						}
					}
				}
				avail := s.avail
				if len(limited) > 0 && (m.OpenLoc != "" || m.ReleaseLoc != "") {
					avail = append([]int(nil), s.avail...)
					if i, ok := limitedIdx[m.OpenLoc]; ok && m.OpenLoc != "" {
						avail[i]--
					}
					if i, ok := limitedIdx[m.ReleaseLoc]; ok && m.ReleaseLoc != "" {
						avail[i]++
					}
				}
				moved := component{tree: m.Tree, mon: mon}
				k := x.key(s.comps, ci, moved, avail)
				to, ok := seen[k]
				if !ok {
					to = int32(len(seen))
					seen[k] = to
					next := xstate{comps: append([]component(nil), s.comps...), avail: avail,
						trace: &traceNode{prev: s.trace, idx: to, entry: entry}}
					next.comps[ci] = moved
					if x.flow != nil {
						x.flow.State(s.trace.idx, &next.trace.entry.Label, mon)
					}
					queue.Push(next)
				}
				if x.flow != nil {
					x.flow.Move(s.trace.idx, to)
				}
			}
		}
	}
	report.Verdict = Valid
	return report, nil
}

// key returns the visited-set key of the configuration comps, with
// component c replaced by moved when c ≥ 0, under availability avail.
// Trees and signatures are interned, so a key is a few IDs instead of
// the concatenation of full tree keys.
func (x *explorer) key(comps []component, c int, moved component, avail []int) stateKey {
	ids := func(i int) (intern.ID, intern.ID) {
		comp := comps[i]
		if i == c {
			comp = moved
		}
		return internTree(x.tab, comp.tree), x.tab.Key(comp.mon.Signature())
	}
	var k stateKey
	k.tree, k.sig = ids(0)
	if len(comps) == 1 && len(avail) == 0 {
		return k
	}
	buf := x.buf[:0]
	for i := 1; i < len(comps); i++ {
		tree, sig := ids(i)
		buf = strconv.AppendInt(buf, int64(tree), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(sig), 10)
		buf = append(buf, ';')
	}
	for _, n := range avail {
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ',')
	}
	x.buf = buf
	rest, ok := x.rests[string(buf)]
	if !ok {
		if x.rests == nil {
			x.rests = map[string]uint32{}
		}
		rest = uint32(len(x.rests) + 1)
		x.rests[string(buf)] = rest
	}
	k.rest = rest
	return k
}

// treeKeys renders the component trees of a configuration, joined by
// " || " — for one component, just its tree key.
func treeKeys(comps []component) string {
	parts := make([]string, len(comps))
	for i, c := range comps {
		parts[i] = c.tree.Key()
	}
	return strings.Join(parts, " || ")
}
