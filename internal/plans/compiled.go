package plans

import (
	"math/bits"

	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/intern"
	"susc/internal/lts"
	"susc/internal/network"
)

// ctree is the engine's compiled session tree: a mirror of network.Node in
// which every subtree is *canonical* — the engine interns leaves by
// (location, expression) and pairs by the IDs of their children, so
// structurally equal subtrees are one arena entry. Successor trees are
// built directly as ctrees: a move rebuilds only the spine from the root
// to the leaf that moved, each spine level is one uint64-keyed table hit
// (no string hashing, no global intern table traffic, no allocation after
// first sight), and the untouched siblings are shared.
//
// Leaves and pairs live in one arena, eng.trees, and a tree is its arena
// index; its hash-consing ID is that index + 1 (table keys must not be
// zero). The struct holds only int32 fields, so the collector never scans
// the arena however many trees a sweep makes: a leaf's payload (location,
// expression, cached steps) sits in the side slice eng.leafPays, one
// entry per distinct leaf, and the compiled move row (treeRowFor) is a
// run of eng.moves, built once and reused by every later expansion of any
// state containing the subtree.
type ctree struct {
	left, right int32 // child trees; -1 for a leaf
	leaf        int32 // eng.leafPays index; -1 for a pair
	// rowOff/rowLen address the tree's move row in eng.moves; rowLen is -1
	// until the row is filed.
	rowOff, rowLen int32
	// nd is a one-entry cache of the graph node last interned for this
	// tree (-1: none): worlds have few distinct monitor signatures (often
	// one), so almost every node lookup is answered here without touching
	// the node table. The table stays the source of truth; the cache only
	// ever holds a node the table already published.
	nd int32
}

// treeID is the hash-consing ID of tree t.
func treeID(t int32) intern.ID { return intern.ID(t + 1) }

// leafPayload is the located process of a leaf ctree. steps is the
// expression's cached transition set, resolved once at interning (leaf
// creation is rare) so the row builders never hash into the shared memo
// cache on their hot paths; step si's label is eng.labels[label+si].
type leafPayload struct {
	loc   hexpr.Location
	locID intern.ID
	expr  hexpr.Expr
	steps []lts.Transition
	label int32
}

// tauLabel is τ's reserved index in eng.labels, the label of every Synch
// move.
const tauLabel = 0

// treeKey renders the tree canonically, matching network.Node.Key() of the
// mirrored tree exactly (fault-injection hooks and deadlock reports key on
// it). Cold path: only built for reports and enabled fault injection.
func (eng *fusedEngine) treeKey(t int32) string {
	ct := eng.trees.at(t)
	if ct.leaf >= 0 {
		lp := &eng.leafPays[ct.leaf]
		return string(lp.loc) + ":" + lp.expr.Key()
	}
	return "[" + eng.treeKey(ct.left) + " , " + eng.treeKey(ct.right) + "]"
}

// u64map is a minimal open-addressed hash table from non-zero uint64 keys
// (intern.Pack values, whose high half is an ID ≥ 1) to int32 arena
// indices. It exists because the canonical-tree and node tables are the
// hottest maps of the engine by an order of magnitude, and this layout
// beats the generic map twice over: probes are a multiplicative hash plus
// a linear scan of a bare []uint64 (no control bytes, no interface
// hashing), and the backing arrays are pointer-free, so the garbage
// collector never scans the tables at all. The tables are engine-local
// and only the engine's goroutine touches them, so they need no locking.
type u64map struct {
	slots []u64slot
	n     int
}

// u64slot interleaves the key with its value, padded to 16 bytes so four
// slots tile a cache line exactly: the probe that finds the key has
// already pulled the value in, where split key/value arrays pay a second
// miss on every hit.
type u64slot struct {
	key uint64
	val int32
	_   int32
}

// hash64 mixes both halves of the key before the multiply so the table
// index draws on every input bit — Pack keys often share a constant half
// (e.g. every node key of a single-signature world has the same low word).
func hash64(k uint64) uint64 {
	h := (k ^ k>>33) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// minSlots is the size of a table's first backing array: a small sweep's
// tables hold tens to hundreds of entries, and a big family's are
// reserved up front (reserveTables), so a larger floor only zeroes slots
// nobody fills.
const minSlots = 1 << 6

// put inserts k (absent, non-zero) → v, growing at 1/2 load from
// minSlots slots, doubling. The low ceiling matters: every pairFor/node
// interning does a *failed* lookup first, and with linear probing the
// unsuccessful-search cost curve bends hard past half load (~3.5 expected
// probes at 2/3 versus ~1.5 at 1/2, each probe a likely cache miss on the
// million-entry tables).
func (m *u64map) put(k uint64, v int32) {
	if m.n*2 >= len(m.slots) {
		size := minSlots
		if len(m.slots) > 0 {
			size = len(m.slots) * 2
		}
		old := m.slots
		m.slots = make([]u64slot, size)
		m.n = 0
		for _, s := range old {
			if s.key != 0 {
				m.put(s.key, s.val)
			}
		}
	}
	mask := uint64(len(m.slots) - 1)
	i := hash64(k) & mask
	for m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = u64slot{key: k, val: v}
	m.n++
}

// getOrSlot looks k up; on a miss it also returns the empty slot its
// probe ended on, so a caller with no intervening insert or growth can
// complete the insert with putAt instead of re-walking the probe chain —
// on million-entry tables each walk is a cache miss, and every interning
// is a miss-then-insert. slot is -1 when the table has no backing array
// yet.
func (m *u64map) getOrSlot(k uint64) (v int32, slot int, ok bool) {
	if m.slots == nil {
		return 0, -1, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := hash64(k) & mask; ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case k:
			return m.slots[i].val, int(i), true
		case 0:
			return 0, int(i), false
		}
	}
}

// putAt inserts k → v into the empty slot a getOrSlot miss returned,
// falling back to a full put when the table needs to grow first (which
// relocates every slot, invalidating the hint).
func (m *u64map) putAt(slot int, k uint64, v int32) {
	if slot < 0 || m.n*2 >= len(m.slots) {
		m.put(k, v)
		return
	}
	m.slots[slot] = u64slot{key: k, val: v}
	m.n++
}

// reserve grows the table so about n insertions fit without further
// rehashing: the smallest power of two of at least minSlots and 2n slots
// (a no-op when the table is already that big). Callers with a
// workload-size estimate use it to skip the doubling ladder: growing a
// table through a dozen doublings allocates and clears more slot memory
// than the final table holds, and re-inserts every entry at each step —
// measured at a third of the engine's allocated bytes on large workloads.
func (m *u64map) reserve(n int) {
	size := minSlots
	for size < n*2 {
		size *= 2
	}
	if size <= len(m.slots) {
		return
	}
	old := m.slots
	m.slots = make([]u64slot, size)
	m.n = 0
	for _, s := range old {
		if s.key != 0 {
			m.put(s.key, s.val)
		}
	}
}

// arena bump-allocates the engine-lifetime entries of the graph (trees,
// moves, nodes, groups, candidate runs) in blocks, addressable by dense
// index: the value the tables store and the entries link each other by.
// Every element type is pointer-free, so a block is one allocation the
// collector never scans. Blocks grow with what the arena holds: the first
// two hold 1<<arenaMin entries, each later one twice its predecessor, so
// the first arenaShift-arenaMin+1 blocks hold 1<<arenaShift entries
// together, and every block after them holds 1<<arenaShift. A small
// sweep thus allocates for the entries it makes, not a 4096-entry block
// per arena, while a big one fills full blocks. Entries never move (alloc
// hands out pointers into the blocks), and at is constant-time: one
// comparison picks the geometric or the fixed-size addressing, and every
// block starts at a multiple of its capacity, so masking an index with
// that capacity yields its offset.
type arena[T any] struct {
	blocks [][]T
	n      int32
}

const (
	arenaMin   = 6  // 64-entry first blocks
	arenaShift = 12 // 4096-entry blocks from index 4096 on
)

// blockCap is the capacity of the arena's k-th block.
func blockCap(k int) int {
	switch {
	case k == 0:
		return 1 << arenaMin
	case k <= arenaShift-arenaMin:
		return 1 << (arenaMin - 1 + k)
	}
	return 1 << arenaShift
}

// tail returns the block the next entry goes in, making it when the last
// block is full.
func (a *arena[T]) tail() *[]T {
	k := len(a.blocks) - 1
	if k < 0 || len(a.blocks[k]) == cap(a.blocks[k]) {
		k++
		a.blocks = append(a.blocks, make([]T, 0, blockCap(k)))
	}
	return &a.blocks[k]
}

// alloc takes the next entry, which the caller fills in, and returns it
// with its index. Blocks are zeroed when made and only ever extended, so
// the entry is zero.
func (a *arena[T]) alloc() (*T, int32) {
	b := a.tail()
	*b = (*b)[:len(*b)+1]
	i := a.n
	a.n++
	return &(*b)[len(*b)-1], i
}

// file appends vs as one run and returns the index of its first entry
// (a.n when vs is empty). A run may straddle a block boundary, so it is
// read entry by entry through at.
func (a *arena[T]) file(vs []T) int32 {
	off := a.n
	for len(vs) > 0 {
		b := a.tail()
		n := min(len(vs), cap(*b)-len(*b))
		*b = append(*b, vs[:n]...)
		a.n += int32(n)
		vs = vs[n:]
	}
	return off
}

func (a *arena[T]) at(i int32) *T {
	// Below 4096, index i sits in block bits.Len(i>>arenaMin): 0 below 64,
	// then one block per power of two up to block 6; from 4096 on, past
	// those seven, one block per 4096 entries.
	k := i>>arenaShift + arenaShift - arenaMin
	if i < 1<<arenaShift {
		k = int32(bits.Len32(uint32(i) >> arenaMin))
	}
	b := a.blocks[k]
	return &b[i&int32(cap(b)-1)]
}

// newTree files a tree with no row and no node yet.
func (eng *fusedEngine) newTree(left, right, leaf int32) int32 {
	t, i := eng.trees.alloc()
	*t = ctree{left: left, right: right, leaf: leaf, rowLen: -1, nd: -1}
	return i
}

// leaf interns the canonical ctree of the located process (loc, e), keyed
// on the interned (location, expression) pair. Leaf creation is rare (one
// per distinct process residual per location), so it may hash the
// expression through the shared intern table and append the leaf's step
// labels to the label table (τ first, with the engine's first leaf);
// everything downstream keys on the engine-local ID.
func (eng *fusedEngine) leaf(loc hexpr.Location, locID intern.ID, e hexpr.Expr) int32 {
	k := intern.Pack(locID, eng.tab.Expr(e))
	i, slot, ok := eng.leaves.getOrSlot(k)
	if ok {
		return i
	}
	if len(eng.labels) == 0 {
		eng.labels = append(eng.labels, &hexpr.Tau) // tauLabel
	}
	lp := leafPayload{loc: loc, locID: locID, expr: e, steps: eng.cache.Steps(e), label: int32(len(eng.labels))}
	for si := range lp.steps {
		eng.labels = append(eng.labels, &lp.steps[si].Label) // shared immutable cache entry: stable
	}
	eng.leafPays = append(eng.leafPays, lp)
	t := eng.newTree(-1, -1, int32(len(eng.leafPays)-1))
	eng.leaves.putAt(slot, k, t)
	return t
}

// pairFor interns the canonical pair ctree [l , r], keyed on the children's
// IDs. The children are canonical by construction (spines are rebuilt
// bottom-up from canonical leaves), so the key identifies the whole
// subtree. This is the innermost expansion hot path — one uint64 table hit
// per lifted move in the steady state.
func (eng *fusedEngine) pairFor(l, r int32) int32 {
	k := intern.Pack(treeID(l), treeID(r))
	i, slot, ok := eng.pairs.getOrSlot(k)
	if ok {
		return i
	}
	t := eng.newTree(l, r, -1)
	eng.pairs.putAt(slot, k, t)
	return t
}

// run addresses n consecutive arena entries from index off: a tree's row
// or a node's groups.
type run struct{ off, n int32 }

// cleafMove is one compiled move of a row — of a leaf or a pair: the move
// relation of the subtree with every plan-independent piece resolved
// once. Successor subtrees (and, for session-opens, the whole successor
// tree per compliant candidate) are pre-interned canonical ctrees,
// history items are pre-built, and the monitor inertness of the items is
// pre-decided against the engine's policy table. Rows dominate the
// compiled graph (one per distinct subtree, lift-copied per spine level),
// and the overwhelming majority of moves are concrete and monitor-inert,
// so a move is five int32-sized fields; its label, its items and an
// open's candidate successors are indices into side tables.
type cleafMove struct {
	// label indexes eng.labels, which points into the shared steps cache
	// (or at hexpr.Tau): traces dereference it on the (cold) failure
	// paths only.
	label int32
	// next is the successor tree of a concrete move; for a session-open,
	// the offset in eng.candTrees of the run of successor trees, one per
	// compliant candidate of the request, in candidate order (the run's
	// length is the request's candidate count).
	next int32
	// reqIdx is the dense request index of a session-open, -1 for
	// concrete moves.
	reqIdx int32
	// items is 1 + the eng.itemSets index of the history items of a
	// non-inert move, 0 for none: inert moves carry no items, as the only
	// consumer of items is the monitor advance, which inert moves skip by
	// definition. Every lift of a move shares its item set.
	items int32
	inert bool // items provably monitor-neutral (inertItems)
}

// moveItems returns the history items of the move (nil for inert moves,
// which dropped them at row-build time).
func (eng *fusedEngine) moveItems(m *cleafMove) []history.Item {
	if m.items == 0 {
		return nil
	}
	return eng.itemSets[m.items-1]
}

// itemSet files the items of a non-inert move and returns the move's
// items field.
func (eng *fusedEngine) itemSet(items []history.Item) int32 {
	eng.itemSets = append(eng.itemSets, items)
	return int32(len(eng.itemSets))
}

// inertItems reports whether the items are provably monitor-neutral for
// every monitor over the engine's table, decided once at row-build time:
// every item must be a plain event whose name no policy automaton watches
// (the table's watched-event index), so every automaton self-loops and no
// active policy can newly violate.
func (eng *fusedEngine) inertItems(items []history.Item) bool {
	for _, it := range items {
		if it.Kind != history.ItemEvent || eng.monCT.WatchedMask(it.Event.Name) != 0 {
			return false
		}
	}
	return true
}

// stageReset empties the move and candidate-tree staging buffers. A row
// is staged there and filed as one run only when complete (fileRow), so
// an error or a panic mid-row leaves the tree without a row and nothing
// filed that anything references; the next builder starts here.
func (eng *fusedEngine) stageReset() {
	eng.stageMoves = eng.stageMoves[:0]
	eng.stageTrees = eng.stageTrees[:0]
}

// fileRow files the staged moves, and the candidate trees their opens
// point into, as one run each, and returns the moves' run.
func (eng *fusedEngine) fileRow() run {
	base := eng.candTrees.file(eng.stageTrees)
	for i := range eng.stageMoves {
		if eng.stageMoves[i].reqIdx >= 0 {
			eng.stageMoves[i].next += base
		}
	}
	return run{eng.moves.file(eng.stageMoves), int32(len(eng.stageMoves))}
}

// setRow records the tree's filed row.
func (eng *fusedEngine) setRow(t int32, rw run) run {
	ct := eng.trees.at(t)
	ct.rowOff, ct.rowLen = rw.off, rw.n
	return rw
}

// cachedRow returns the tree's row, if filed.
func (eng *fusedEngine) cachedRow(t int32) (run, bool) {
	ct := eng.trees.at(t)
	return run{ct.rowOff, ct.rowLen}, ct.rowLen >= 0
}

// rowFor returns the compiled move row of the canonical leaf, building it on
// first sight. The construction mirrors network.leafMoves exactly — same
// step order, same label/item values — except that an open branches over
// its compliant candidates in candidate order instead of resolving through
// a plan, and an open with no compliant candidate is dropped; so
// projecting the compiled graph under a plan yields precisely the legacy
// move relation.
func (eng *fusedEngine) rowFor(t int32) (run, error) {
	if rw, ok := eng.cachedRow(t); ok {
		return rw, nil
	}
	lp := eng.leafPays[eng.trees.at(t).leaf] // a copy: leaf appends to leafPays
	eng.stageReset()
	for si := range lp.steps {
		tr := &lp.steps[si]
		label := lp.label + int32(si)
		switch tr.Label.Kind {
		case hexpr.LEvent:
			mv := cleafMove{
				label:  label,
				next:   eng.leaf(lp.loc, lp.locID, tr.To),
				reqIdx: -1,
				inert:  eng.monCT.WatchedMask(tr.Label.Event.Name) == 0,
			}
			if !mv.inert {
				mv.items = eng.itemSet([]history.Item{history.EventItem(tr.Label.Event)})
			}
			eng.stageMoves = append(eng.stageMoves, mv)
		case hexpr.LFrameOpen, hexpr.LFrameClose:
			mv := cleafMove{
				label:  label,
				next:   eng.leaf(lp.loc, lp.locID, tr.To),
				reqIdx: -1,
				inert:  true, // no items unless the frame names a policy
			}
			if tr.Label.Policy != hexpr.NoPolicy {
				item := history.OpenItem(tr.Label.Policy)
				if tr.Label.Kind == hexpr.LFrameClose {
					item = history.CloseItem(tr.Label.Policy)
				}
				mv.inert = false
				mv.items = eng.itemSet([]history.Item{item})
			}
			eng.stageMoves = append(eng.stageMoves, mv)
		case hexpr.LOpen:
			ri := eng.reqIdx[tr.Label.Req]
			locs, err := eng.candidates(ri)
			if err != nil {
				return run{}, err
			}
			toLeaf := eng.leaf(lp.loc, lp.locID, tr.To)
			// Open groups with no candidate are dropped: no plan enables
			// them (same as the lazy walk).
			if len(locs) == 0 {
				continue
			}
			// next is staged relative to the staged candidate trees;
			// fileRow rebases it.
			mv := cleafMove{label: label, next: int32(len(eng.stageTrees)), reqIdx: ri, inert: true}
			if tr.Label.Policy != hexpr.NoPolicy {
				mv.items = eng.itemSet([]history.Item{history.OpenItem(tr.Label.Policy)})
				mv.inert = false
			}
			for _, li := range locs {
				l := eng.locations[li]
				eng.stageTrees = append(eng.stageTrees, eng.pairFor(toLeaf, eng.leaf(l, eng.locIDs[l], eng.services[li])))
			}
			eng.stageMoves = append(eng.stageMoves, mv)
		}
	}
	return eng.setRow(t, eng.fileRow()), nil
}

// treeRowFor returns the compiled move row of any canonical ctree,
// composing pair rows from the children's rows in the order that,
// projected onto any one plan, is network.TreeMovesStep's: the left
// subtree's moves (each successor re-wrapped with the shared right
// sibling), then the right subtree's (symmetrically), then the
// Synch/Close moves when both children are leaves. Because children rows
// already carry canonical successors, each move is wrapped through
// exactly one pairFor per tree level it is lifted through — and that
// lift happens once per distinct subtree, not once per expansion.
func (eng *fusedEngine) treeRowFor(t int32) (run, error) {
	if rw, ok := eng.cachedRow(t); ok {
		return rw, nil
	}
	ct := *eng.trees.at(t)
	if ct.leaf >= 0 {
		return eng.rowFor(t)
	}
	lrow, err := eng.treeRowFor(ct.left)
	if err != nil {
		return run{}, err
	}
	rrow, err := eng.treeRowFor(ct.right)
	if err != nil {
		return run{}, err
	}
	eng.stageReset()
	eng.liftRow(lrow, ct.left, ct.right, liftLeft)
	eng.liftRow(rrow, ct.left, ct.right, liftRight)
	if eng.isLeaf(ct.left) && eng.isLeaf(ct.right) {
		eng.pairMoves(ct.left, ct.right)
	}
	return eng.setRow(t, eng.fileRow()), nil
}

func (eng *fusedEngine) isLeaf(t int32) bool { return eng.trees.at(t).leaf >= 0 }

// A lift names where a child's move sits in its parent pair [l , r]: a
// successor s of the left child becomes [s , r], of the right one [l , s].
// liftNone leaves s whole (the root is a leaf, or a Synch/Close collapsed
// the root pair).
type lift int8

const (
	liftNone lift = iota
	liftLeft
	liftRight
)

// lifted is successor s wrapped by the lift into the pair [l , r].
func (eng *fusedEngine) lifted(s, l, r int32, side lift) int32 {
	switch side {
	case liftLeft:
		return eng.pairFor(s, r)
	case liftRight:
		return eng.pairFor(l, s)
	}
	return s
}

// liftRow stages the moves of a child's row, each successor lifted into the
// pair [l , r]: labels, items and request indices are shared, and an open's
// candidate successors are lifted into a staged run of their own.
func (eng *fusedEngine) liftRow(rw run, l, r int32, side lift) {
	for i := rw.off; i < rw.off+rw.n; i++ {
		m := *eng.moves.at(i)
		if m.reqIdx < 0 {
			m.next = eng.lifted(m.next, l, r, side)
		} else {
			src := m.next
			m.next = int32(len(eng.stageTrees))
			for c := range int32(len(eng.cands[m.reqIdx])) {
				eng.stageTrees = append(eng.stageTrees, eng.lifted(*eng.candTrees.at(src + c), l, r, side))
			}
		}
		eng.stageMoves = append(eng.stageMoves, m)
	}
}

// pairMoves stages the compiled Synch/Close moves of a session whose two
// sides are the given canonical leaves. The construction mirrors
// network.pairMoves: complementary communications in (left step, right
// step) order, then closes of the left side, then of the right.
func (eng *fusedEngine) pairMoves(l, r int32) {
	lp, rp := eng.leafPays[eng.trees.at(l).leaf], eng.leafPays[eng.trees.at(r).leaf]
	for _, a := range lp.steps {
		if a.Label.Kind != hexpr.LComm {
			continue
		}
		for _, b := range rp.steps {
			if b.Label.Kind != hexpr.LComm || b.Label.Comm != a.Label.Comm.Co() {
				continue
			}
			la := eng.leaf(lp.loc, lp.locID, a.To)
			rb := eng.leaf(rp.loc, rp.locID, b.To)
			eng.stageMoves = append(eng.stageMoves, cleafMove{
				label:  tauLabel,
				next:   eng.pairFor(la, rb),
				reqIdx: -1,
			})
		}
	}
	eng.closeMoves(&lp, &rp)
	eng.closeMoves(&rp, &lp)
}

// closeMoves stages the compiled Close moves in which closer closes the
// session: the pair collapses to the closing leaf and Φ(other)·⌋φ is
// logged, mirroring network.closeMoves.
func (eng *fusedEngine) closeMoves(closer, other *leafPayload) {
	for si := range closer.steps {
		tr := &closer.steps[si]
		if tr.Label.Kind != hexpr.LClose {
			continue
		}
		items := network.ClosingFrames(other.expr)
		if tr.Label.Policy != hexpr.NoPolicy {
			items = append(items, history.CloseItem(tr.Label.Policy))
		}
		mv := cleafMove{
			label:  closer.label + int32(si),
			next:   eng.leaf(closer.loc, closer.locID, tr.To),
			reqIdx: -1,
			inert:  eng.inertItems(items),
		}
		if !mv.inert {
			mv.items = eng.itemSet(items)
		}
		eng.stageMoves = append(eng.stageMoves, mv)
	}
}
