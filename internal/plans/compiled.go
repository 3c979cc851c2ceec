package plans

import (
	"sync/atomic"

	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/intern"
	"susc/internal/lts"
	"susc/internal/network"
)

// ctree is the engine's compiled session tree: a mirror of network.Node in
// which every subtree is *canonical* — the engine interns leaves by
// (location, expression) and pairs by the IDs of their children, so
// structurally equal subtrees are pointer-equal and carry one engine-local
// dense ID. Successor trees are built directly as ctrees: a move rebuilds
// only the spine from the root to the leaf that moved, each spine level is
// one uint64-keyed cache hit (no string hashing, no global intern table
// traffic, no allocation after first sight), and the untouched siblings
// are shared pointers.
//
// The struct is kept lean on purpose: pairs dominate the population by
// orders of magnitude (one per distinct subtree of the explored
// configuration space), so the leaf payload lives behind one pointer that
// pairs leave nil, and pairs themselves are bump-allocated in blocks under
// the intern lock (they are engine-lifetime, so individual GC tracking
// buys nothing).
//
// Canonical ctrees also carry their compiled move row (treeRowFor): the
// row pointer is filled once and every later expansion of any state
// containing the subtree reuses it lock-free.
type ctree struct {
	id          intern.ID // engine-local ID: odd for leaves, even for pairs
	left, right *ctree    // nil for leaves
	lp          *leafPayload
	row         atomic.Pointer[leafRow]
	// nd is a one-entry cache of the graph node last interned for this
	// tree: worlds have few distinct monitor signatures (often one), so
	// almost every node lookup is answered here without touching the node
	// map. The map stays the source of truth; the cache only ever holds a
	// node the map already published. (A two-way cache was tried and
	// bought nothing: signatures rarely alternate on one tree, and the
	// extra word per ctree just grew the scanned heap.)
	nd atomic.Pointer[fnode]
}

// leafPayload is the located process of a leaf ctree (left == nil). steps
// is the expression's cached transition set, resolved once at interning
// (leaf creation is rare) so the row builders never hash into the shared
// memo cache on their hot paths.
type leafPayload struct {
	loc   hexpr.Location
	locID intern.ID
	expr  hexpr.Expr
	steps []lts.Transition
}

// treeKey renders the tree canonically, matching network.Node.Key() of the
// mirrored tree exactly (fault-injection hooks and deadlock reports key on
// it). Cold path: only built for reports and enabled fault injection.
func (t *ctree) treeKey() string {
	if t.left == nil {
		return string(t.lp.loc) + ":" + t.lp.expr.Key()
	}
	return "[" + t.left.treeKey() + " , " + t.right.treeKey() + "]"
}

// u64map is a minimal open-addressed hash table from non-zero uint64 keys
// (intern.Pack values, whose high half is a ctree ID ≥ 1) to int32 arena
// indices. It exists because the canonical-pair and node tables are the
// hottest maps of the engine by an order of magnitude, and this layout
// beats the generic map twice over: probes are a multiplicative hash plus
// a linear scan of a bare []uint64 (no control bytes, no interface
// hashing), and the backing arrays are pointer-free, so the garbage
// collector never scans the tables at all. Callers provide their own
// locking (the tables live behind the engine's pairMu/nodeMu).
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

func (m *u64map) get(k uint64) (int32, bool) {
	if m.slots == nil {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := hash64(k) & mask; ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case k:
			return m.slots[i].val, true
		case 0:
			return 0, false
		}
	}
}

// put inserts k (absent, non-zero) → v, growing at 1/2 load. The low
// ceiling matters: every pairFor/nodeFor interning does a *failed* get
// first, and with linear probing the unsuccessful-search cost curve bends
// hard past half load (~3.5 expected probes at 2/3 versus ~1.5 at 1/2,
// each probe a likely cache miss on the million-entry tables).
func (m *u64map) put(k uint64, v int32) {
	if m.n*2 >= len(m.slots) {
		size := 1 << 13
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

// getOrSlot looks k up like get; on a miss it also returns the empty slot
// its probe ended on, so a caller holding the table still (same lock, no
// intervening insert or growth) can complete the insert with putAt instead
// of re-walking the probe chain — on million-entry tables each walk is a
// cache miss, and every interning is a miss-then-insert. slot is -1 when
// the table has no backing array yet.
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
// rehashing (a no-op when the table is already big enough). Callers with a
// workload-size estimate use it to skip the doubling ladder: growing a
// table through a dozen doublings allocates and clears more slot memory
// than the final table holds, and re-inserts every entry at each step —
// measured at a third of the engine's allocated bytes on large workloads.
func (m *u64map) reserve(n int) {
	size := 1 << 13
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

// carena bump-allocates pair ctrees in 4096-entry blocks, addressable by
// dense index (the value stored in the pair table). All allocation happens
// under the owning structure's write lock (pairFor), so no further
// synchronisation is needed; reads of at() happen under at least the read
// lock, after the entry was published.
type carena struct {
	blocks [][]ctree
	n      int32
}

const arenaShift = 12 // 4096-entry blocks

func (a *carena) alloc(id intern.ID, l, r *ctree) (*ctree, int32) {
	if a.n>>arenaShift == int32(len(a.blocks)) {
		a.blocks = append(a.blocks, make([]ctree, 0, 1<<arenaShift))
	}
	b := &a.blocks[len(a.blocks)-1]
	*b = append(*b, ctree{id: id, left: l, right: r})
	i := a.n
	a.n++
	return &(*b)[len(*b)-1], i
}

func (a *carena) at(i int32) *ctree {
	return &a.blocks[i>>arenaShift][i&(1<<arenaShift-1)]
}

// leaf interns the canonical ctree of the located process (loc, e), keyed
// on the interned (location, expression) pair. Leaf creation is rare (one
// per distinct process residual per location), so it may hash the
// expression through the shared intern table; everything downstream keys
// on the engine-local ID.
func (eng *fusedEngine) leaf(loc hexpr.Location, locID intern.ID, e hexpr.Expr) *ctree {
	k := intern.Pack(locID, eng.tab.Expr(e))
	if eng.concurrent {
		eng.leafMu.RLock()
		t := eng.leaves[k]
		eng.leafMu.RUnlock()
		if t != nil {
			return t
		}
		nt := &ctree{lp: &leafPayload{loc: loc, locID: locID, expr: e, steps: eng.cache.Steps(e)}}
		eng.leafMu.Lock()
		if ex := eng.leaves[k]; ex != nil {
			nt = ex
		} else {
			eng.leafID++
			nt.id = intern.ID(2*eng.leafID - 1) // odd IDs (pairs take the even ones)
			eng.leaves[k] = nt
		}
		eng.leafMu.Unlock()
		return nt
	}
	if t := eng.leaves[k]; t != nil {
		return t
	}
	eng.leafID++
	nt := &ctree{
		id: intern.ID(2*eng.leafID - 1),
		lp: &leafPayload{loc: loc, locID: locID, expr: e, steps: eng.cache.Steps(e)},
	}
	eng.leaves[k] = nt
	return nt
}

// pairFor interns the canonical pair ctree [l , r], keyed on the children's
// IDs. The children are canonical by construction (spines are rebuilt
// bottom-up from canonical leaves), so the key identifies the whole
// subtree. This is the innermost expansion hot path — one read-locked
// uint64 map hit per lifted move in the steady state.
func (eng *fusedEngine) pairFor(l, r *ctree) *ctree {
	k := intern.Pack(l.id, r.id)
	if eng.concurrent {
		eng.pairMu.RLock()
		var t *ctree
		if i, ok := eng.pairs.get(k); ok {
			t = eng.pairArena.at(i)
		}
		eng.pairMu.RUnlock()
		if t != nil {
			return t
		}
		eng.pairMu.Lock()
		if i, slot, ok := eng.pairs.getOrSlot(k); ok {
			t = eng.pairArena.at(i)
		} else {
			eng.pairID++
			var idx int32
			t, idx = eng.pairArena.alloc(intern.ID(2*eng.pairID), l, r) // even IDs (leaves take the odd ones)
			eng.pairs.putAt(slot, k, idx)
		}
		eng.pairMu.Unlock()
		return t
	}
	i, slot, ok := eng.pairs.getOrSlot(k)
	if ok {
		return eng.pairArena.at(i)
	}
	eng.pairID++
	t, idx := eng.pairArena.alloc(intern.ID(2*eng.pairID), l, r)
	eng.pairs.putAt(slot, k, idx)
	return t
}

// leafRow is the compiled move row of one canonical ctree — leaf or pair:
// the full move relation of the subtree with every plan-independent piece
// resolved once. Successor subtrees (and, for session-opens, the whole
// successor tree per compliant candidate) are pre-interned canonical
// ctrees, history items are pre-built, and the monitor inertness of the
// items is pre-decided against the engine's policy table. Pair rows are
// composed from the children's cached rows (treeRowFor), so the spine
// wrapping of a subtree's moves is paid once per *distinct* subtree and
// shared by every state containing it.
type leafRow struct {
	moves []cleafMove
}

// cleafMove is one compiled move of a row. Rows dominate the compiled
// graph's memory (one per distinct subtree, lift-copied per spine level),
// and the overwhelming majority of moves are concrete and monitor-inert,
// so the struct is kept to four words — label, successor, dense request
// index, inert flag — and everything rarer (history items that actually
// advance the monitor, the candidate arrays of a session-open) lives
// behind ext. Inert moves carry no items at all: the only consumer of
// items is the monitor advance, which inert moves skip by definition.
type cleafMove struct {
	// label points into the shared steps cache (or at hexpr.Tau): labels
	// are several string headers wide and every lift would otherwise copy
	// them; traces dereference on the (cold) failure paths only.
	label *hexpr.Label
	next  *ctree
	// reqIdx is the dense request index of a session-open, -1 for
	// concrete moves.
	reqIdx int32
	inert  bool // items provably monitor-neutral (history.Monitor.InertFor)
	ext    *cmext
}

// cmext is the rare-move extension: the history items of a non-inert move,
// and for session-opens (reqIdx >= 0) one pre-built successor tree per
// compliant candidate in cnexts, with the candidates' dense location
// indices in locIdxs. locIdxs and items are shared by every lift of the
// move (only the successors change when a move is lifted through a spine
// level); locIdxs is also shared by the fgroups compiled from the move.
type cmext struct {
	items   []history.Item
	locIdxs []int32
	cnexts  []*ctree
}

// moveItems returns the history items of the move (nil for inert moves,
// which dropped them at row-build time).
func (m *cleafMove) moveItems() []history.Item {
	if m.ext == nil {
		return nil
	}
	return m.ext.items
}

// inertItems reports whether the items are provably monitor-neutral for
// every monitor over the engine's table — the static analogue of
// history.Monitor.InertFor, decided once at row-build time: every item must
// be a plain event whose name no policy automaton watches.
func (eng *fusedEngine) inertItems(items []history.Item) bool {
	for _, it := range items {
		if it.Kind != history.ItemEvent || eng.monCT.WatchedMask(it.Event.Name) != 0 {
			return false
		}
	}
	return true
}

// rowFor returns the compiled move row of the canonical leaf, building it on
// first sight. The construction mirrors network.leafMoves exactly — same
// step order, same label/item values — except that an open branches over
// its compliant candidates in candidate order instead of resolving through
// a plan, and an open with no compliant candidate is dropped; so
// projecting the compiled graph under a plan yields precisely the legacy
// move relation. Racing builders produce structurally identical rows; one
// wins the publish.
func (eng *fusedEngine) rowFor(t *ctree) (*leafRow, error) {
	if r := t.row.Load(); r != nil {
		return r, nil
	}
	lp := t.lp
	row := &leafRow{}
	steps := lp.steps
	for si := range steps {
		tr := &steps[si] // shared immutable cache entry: &tr.Label is stable
		switch tr.Label.Kind {
		case hexpr.LEvent:
			mv := cleafMove{
				label:  &tr.Label,
				next:   eng.leaf(lp.loc, lp.locID, tr.To),
				reqIdx: -1,
				inert:  eng.monCT.WatchedMask(tr.Label.Event.Name) == 0,
			}
			if !mv.inert {
				mv.ext = &cmext{items: []history.Item{history.EventItem(tr.Label.Event)}}
			}
			row.moves = append(row.moves, mv)
		case hexpr.LFrameOpen, hexpr.LFrameClose:
			mv := cleafMove{
				label:  &tr.Label,
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
				mv.ext = &cmext{items: []history.Item{item}}
			}
			row.moves = append(row.moves, mv)
		case hexpr.LOpen:
			locs, err := eng.candidates(tr.Label.Req)
			if err != nil {
				return nil, err
			}
			ext := &cmext{}
			mv := cleafMove{
				label:  &tr.Label,
				reqIdx: eng.reqIdx[tr.Label.Req],
				inert:  true,
				ext:    ext,
			}
			if tr.Label.Policy != hexpr.NoPolicy {
				ext.items = []history.Item{history.OpenItem(tr.Label.Policy)}
				mv.inert = false
			}
			toLeaf := eng.leaf(lp.loc, lp.locID, tr.To)
			for _, loc := range locs {
				service, ok := eng.repo[loc]
				if !ok {
					continue // dangling candidate: not enabled
				}
				svcLeaf := eng.leaf(loc, eng.locKey(loc), service)
				ext.locIdxs = append(ext.locIdxs, eng.locIdx[loc])
				ext.cnexts = append(ext.cnexts, eng.pairFor(toLeaf, svcLeaf))
			}
			// Open groups with no candidate are dropped: no plan enables
			// them (same as the lazy walk).
			if len(ext.cnexts) > 0 {
				row.moves = append(row.moves, mv)
			}
		}
	}
	t.row.Store(row)
	return row, nil
}

// treeRowFor returns the compiled move row of any canonical ctree,
// composing pair rows from the children's rows in the order that,
// projected onto any one plan, is network.TreeMovesStep's: the left
// subtree's moves (each successor re-wrapped with the shared right
// sibling), then the right subtree's (symmetrically), then the
// Synch/Close moves when both children are leaves. Because children rows
// already carry canonical successors, each move is wrapped through
// exactly one pairFor per tree level it is lifted through — and that
// lift happens once per distinct subtree, not once per expansion. Racing
// builders produce structurally identical rows; one wins the publish.
func (eng *fusedEngine) treeRowFor(t *ctree) (*leafRow, error) {
	if r := t.row.Load(); r != nil {
		return r, nil
	}
	if t.left == nil {
		return eng.rowFor(t)
	}
	lrow, err := eng.treeRowFor(t.left)
	if err != nil {
		return nil, err
	}
	rrow, err := eng.treeRowFor(t.right)
	if err != nil {
		return nil, err
	}
	row := &leafRow{moves: make([]cleafMove, 0, len(lrow.moves)+len(rrow.moves))}
	lift := func(moves []cleafMove, wrap func(*ctree) *ctree) {
		for i := range moves {
			m := moves[i] // copy: successors rewritten, items/locIdxs shared
			if m.reqIdx < 0 {
				m.next = wrap(m.next)
			} else {
				ext := &cmext{items: m.ext.items, locIdxs: m.ext.locIdxs,
					cnexts: make([]*ctree, len(m.ext.cnexts))}
				for j, c := range m.ext.cnexts {
					ext.cnexts[j] = wrap(c)
				}
				m.ext = ext
			}
			row.moves = append(row.moves, m)
		}
	}
	lift(lrow.moves, func(s *ctree) *ctree { return eng.pairFor(s, t.right) })
	lift(rrow.moves, func(s *ctree) *ctree { return eng.pairFor(t.left, s) })
	if t.left.left == nil && t.right.left == nil {
		eng.pairMovesInto(row, t.left, t.right)
	}
	t.row.Store(row)
	return row, nil
}

// pairMovesInto appends the compiled Synch/Close moves of a session whose
// two sides are the given canonical leaves. The construction mirrors
// network.pairMoves: complementary communications in (left step, right
// step) order, then closes of the left side, then of the right. Built
// directly into the pair's row (the pair ctree is canonical, so the row
// is cached with it).
func (eng *fusedEngine) pairMovesInto(row *leafRow, l, r *ctree) {
	ls := l.lp.steps
	rs := r.lp.steps
	for _, a := range ls {
		if a.Label.Kind != hexpr.LComm {
			continue
		}
		for _, b := range rs {
			if b.Label.Kind != hexpr.LComm || b.Label.Comm != a.Label.Comm.Co() {
				continue
			}
			la := eng.leaf(l.lp.loc, l.lp.locID, a.To)
			rb := eng.leaf(r.lp.loc, r.lp.locID, b.To)
			row.moves = append(row.moves, cleafMove{
				label:  &hexpr.Tau,
				next:   eng.pairFor(la, rb),
				reqIdx: -1,
			})
		}
	}
	eng.closeRowInto(row, l, r, ls)
	eng.closeRowInto(row, r, l, rs)
}

// closeRowInto appends the compiled Close moves in which closer closes the
// session: the pair collapses to the closing leaf and Φ(other)·⌋φ is
// logged, mirroring network.closeMoves.
func (eng *fusedEngine) closeRowInto(row *leafRow, closer, other *ctree, steps []lts.Transition) {
	for si := range steps {
		tr := &steps[si]
		if tr.Label.Kind != hexpr.LClose {
			continue
		}
		items := network.ClosingFrames(other.lp.expr)
		if tr.Label.Policy != hexpr.NoPolicy {
			items = append(items, history.CloseItem(tr.Label.Policy))
		}
		mv := cleafMove{
			label:  &tr.Label,
			next:   eng.leaf(closer.lp.loc, closer.lp.locID, tr.To),
			reqIdx: -1,
			inert:  eng.inertItems(items),
		}
		if !mv.inert {
			mv.ext = &cmext{items: items}
		}
		row.moves = append(row.moves, mv)
	}
}
