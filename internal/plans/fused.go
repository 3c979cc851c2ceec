package plans

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/intern"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/ring"
	"susc/internal/verify"
)

// FusedStats counts the work of one fused synthesis. An engine adds to
// it from the goroutine that called it; the fields are typed atomics so
// that concurrent calls may share one FusedStats and any reader may Load
// at any time, including mid-run — there is no plain access to mix with.
// The struct must not be copied; Reset zeroes it in place between runs.
type FusedStats struct {
	// StatesExpanded is the number of distinct graph states whose moves
	// and monitor advances were computed (once, shared by every plan
	// reaching the state).
	StatesExpanded atomic.Uint64
	// EdgesBuilt is the number of graph edges built: one per concrete
	// move, one per compliant candidate of a lazy session-open.
	EdgesBuilt atomic.Uint64
	// ReplayStates is the total number of state visits across all plan
	// replays — the fused analogue of summing Report.States over the
	// plans that were actually explored.
	ReplayStates atomic.Uint64
	// ReplayMemoHits is the number of plans whose verdict was recovered
	// from an earlier replay consulting the same binding decisions.
	ReplayMemoHits atomic.Uint64
	// PlansAssessed is the number of complete plans the engine assessed:
	// in a tiered sweep (AssessAll), the report-tier misses it replayed.
	PlansAssessed atomic.Uint64
	// BindingsPruned is the number of candidate bindings rejected by the
	// PruneNonCompliant probe during enumeration.
	BindingsPruned atomic.Uint64
}

// Reset zeroes every counter in place (the struct is not copyable, so
// `*st = FusedStats{}` is not an option for reuse across runs).
func (s *FusedStats) Reset() {
	s.StatesExpanded.Store(0)
	s.EdgesBuilt.Store(0)
	s.ReplayStates.Store(0)
	s.ReplayMemoHits.Store(0)
	s.PlansAssessed.Store(0)
	s.BindingsPruned.Store(0)
}

// fusedEngine is the shared-state-space synthesis engine. One engine
// serves one AssessAll, AssessStream or AssessWithFlows call and runs on
// the goroutine that made it, so
// its graph, canonical tables and replay memo need no locks; the
// memo.Cache it draws compliance verdicts and transition sets from may
// outlive it and is shared, under its own locks, by concurrent calls.
//
// The state graph is plan-oblivious: a node is keyed by the interned
// session tree and monitor signature only — exactly the visited-set key of
// verify.CheckPlanOpts (synthesis never bounds availability, so the
// availability component is always empty). Session-opens are not resolved
// through a plan: a node's outgoing edges include one *group* per enabled
// open, carrying one sub-edge per compliant candidate service. A concrete
// plan's exploration is the projection of the graph that keeps, in every
// group, the candidate the plan selects — so one graph expansion serves
// every plan, and replaying a plan is a BFS over prebuilt edges with no
// stepping, no monitor copies and no interning.
//
// The engine is indexed by request, not by session: every session that
// opens a request identifier opens it with one framing policy and one
// body — the rule internal/parser checks where specs are parsed, and
// newFusedEngine guards for worlds built in code — so one policy, one
// body and one compliance row per request serve enumeration, keying and
// the static checks.
//
// Everything on the expansion and replay hot paths is compiled to dense
// form at engine construction (see compiled.go): requests and repository
// locations get dense int32 indices (a plan becomes an int32 vector),
// session trees are ctrees carrying their interned IDs, and the move
// relation of a leaf is cached as a compiled row with successors
// pre-interned, items pre-built and monitor inertness pre-decided.
type fusedEngine struct {
	table  *policy.Table
	loc    hexpr.Location
	client hexpr.Expr
	opts   Options
	cache  *memo.Cache
	tab    *intern.Table
	stats  *FusedStats
	// monCT is the compiled view of the policy table; row building uses it
	// to pre-decide item inertness (inertItems).
	monCT *policy.CompiledTable
	// locIDs pre-interns every location of the world (client + repository),
	// read-only after construction, so keying a leaf skips the string
	// build and shard lock of Table.Key.
	locIDs map[hexpr.Location]intern.ID

	// locations is the deterministic candidate order (sorted repository
	// locations), shared with the legacy enumerator. locIdx maps a
	// location to its dense position in it; services mirrors the service
	// expressions by the same index.
	locations []hexpr.Location
	locIdx    map[hexpr.Location]int32
	services  []hexpr.Expr
	// reqIdx assigns every request of the world a dense index (sorted-
	// request order), reqs is its inverse and nReq the size of that index
	// space. policies and bodies hold each request's one framing policy
	// and body: every session that opens a request opens it alike — the
	// rule internal/parser checks where specs are parsed, and
	// newFusedEngine refuses a world that breaks it.
	reqIdx   map[hexpr.RequestID]int32
	reqs     []hexpr.RequestID
	nReq     int
	policies []hexpr.PolicyID
	bodies   []hexpr.Expr
	// clientOpens and locOpens (indexed by locIdx) list the requests the
	// client and each service open, as dense indices in hexpr.Walk
	// pre-order, each once: plan enumeration, the cycle checks and the
	// static compliance walk read them instead of walking expressions.
	clientOpens []int32
	locOpens    [][]int32
	// compl is the compliance matrix, reqIdx*len(locations) + locIdx → 0
	// unknown, 1 compliant, 2 not, filled from the shared cache on first
	// use (compliant): enumeration's pruning, the candidate sets and the
	// per-plan static walk read it, so each (request, location) cell costs
	// one cache round-trip per engine.
	compl []int8
	// cands holds the candidate locations of each request (candidates),
	// nil until first asked.
	cands [][]int32

	// cycleFree records that the union call graph — every request pointing
	// at every location enumeration could bind it to — is acyclic, which
	// proves every assessed plan acyclic (each plan's call graph is a
	// subgraph) and lets staticCheck skip the per-plan cycle DFS. Set
	// before the first plan is assessed, read-only after.
	cycleFree bool

	// leaves/pairs intern the canonical ctrees — leaves keyed on (location
	// ID, expression ID), pairs on the children's engine-local IDs. IDs are
	// split odd (leaves, leafID) / even (pairs, pairID) so the two spaces
	// cannot collide. Pair ctrees and fnodes are bump-allocated from
	// arenas: they are engine-lifetime and dominate the object population,
	// so block allocation removes both the per-object malloc and the
	// garbage collector's per-object tracking, and packs the replay-hot
	// nodes contiguously.
	leaves    map[uint64]*ctree
	leafID    int32
	pairs     u64map
	pairArena carena
	pairID    int32

	nodes     u64map
	nodeArena narena
	// start is the graph's initial state, the client's leaf under a fresh
	// monitor. newReplayer builds it on the engine's first replayer, so a
	// sweep that replays nothing (a MaxPlans overrun, an empty family, a
	// tiered family whose every verdict hits) allocates no node table, no
	// arena block and no start node; nil until then.
	start *fnode

	memo *decisionTrie
}

// fnode is one shared graph state. The monitor is warmed (signature
// cached and interned into sigID) before publication and never mutated
// afterwards; expansion advances only fresh snapshots.
type fnode struct {
	ct  *ctree
	mon *history.Monitor
	// sigID is the interned monitor signature, inherited by successors
	// that share the monitor so inert moves re-key nothing.
	sigID intern.ID
	done  bool
	// idx is the node's dense creation index; replays key their visited
	// arrays on it (an indexed slot instead of a map operation per visit).
	idx int32

	// expanded flips once groups/err are final.
	expanded bool
	err      error
	groups   []fgroup
}

// fgroup is one outgoing move group of an expanded node. The overwhelming
// majority of groups are plain concrete moves, so the struct is three
// words — move, successor, and a nil ext — and everything rarer (a policy
// violation, or the candidate set of a lazy open) lives behind ext. The
// monitor items of a group are shared by all its candidates, so a
// violation is a per-group fact.
type fgroup struct {
	// mv is the compiled move the group was built from: its label for
	// traces, its items for flow replays (replayer.record).
	mv   *cleafMove
	next *fnode // concrete groups (nil when the move violates or opens)
	ext  *fgext
}

// fgext is the rare-group extension: a violating move (violation set,
// whichever kind the move was) or a lazy open (reqIdx plus one successor
// per compliant candidate, in candidate order; locIdxs is *shared* with
// the compiled row move the group was built from — the candidate set of an
// open is plan-independent, only the successors are per-node).
type fgext struct {
	reqIdx    int32
	violation hexpr.PolicyID
	locIdxs   []int32
	cnexts    []*fnode
}

// decision is one binding consulted during a replay, in consultation
// order, in dense index space (loc < 0 records "unbound or bound outside
// the world" — the two behave identically).
type decision struct {
	req int32
	loc int32
}

// decisionTrie memoises replay reports on the ordered binding decisions
// the replay consulted. Plans agreeing on a replay's consulted decisions
// explore the very same projection of the graph, so they share its report;
// a plan that fails before its later bindings are ever consulted stands in
// for the whole (possibly exponential) family of plans extending the
// failing prefix. Replays consult decisions deterministically, so the
// next-consulted request at any trie position is a function of the path —
// the trie is well-formed by construction.
type decisionTrie struct {
	req      int32 // dense request index this node branches on (-1 = leaf/unset)
	branches map[int32]*decisionTrie
	leaf     bool
	report   *verify.Report
}

// errRequestClash tags the refusal of a world that opens one request
// identifier with two framing policies or bodies.
var errRequestClash = errors.New("one request identifier opens one policy and one body")

// newFusedEngine compiles the world's requests: one policy and one body
// per request, from every session of the client and of the repository.
// A world in which two sessions open one request differently is refused,
// with an error naming the request and both locations: the parser refuses
// such a spec, but a world built in code (an inferred effect against a
// parsed repository, say) reaches the engine unparsed.
func newFusedEngine(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options) (*fusedEngine, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	stats := opts.Stats
	if stats == nil {
		stats = &FusedStats{}
	}
	eng := &fusedEngine{
		table:     table,
		loc:       loc,
		client:    client,
		opts:      opts,
		cache:     cache,
		tab:       cache.Interner(),
		stats:     stats,
		monCT:     table.Compiled(),
		locations: repo.Locations(),
		leaves:    map[uint64]*ctree{},
	}
	nLoc := len(eng.locations)
	eng.locIDs = make(map[hexpr.Location]intern.ID, nLoc+1)
	eng.locIDs[loc] = eng.tab.Key(string(loc))
	eng.locIdx = make(map[hexpr.Location]int32, nLoc)
	eng.services = make([]hexpr.Expr, nLoc)
	for i, l := range eng.locations {
		eng.locIDs[l] = eng.tab.Key(string(l))
		eng.locIdx[l] = int32(i)
		eng.services[i] = repo[l]
	}
	type opener struct {
		s  hexpr.Session
		at hexpr.Location
	}
	first := map[hexpr.RequestID]opener{}
	opens := func(at hexpr.Location, e hexpr.Expr) (out []hexpr.RequestID, err error) {
		hexpr.Walk(e, func(x hexpr.Expr) {
			s, ok := x.(hexpr.Session)
			if !ok || err != nil {
				return
			}
			o, seen := first[s.Req]
			switch {
			case !seen:
				first[s.Req] = opener{s, at}
			case o.s.Policy != s.Policy:
				err = fmt.Errorf("plans: request %s is opened with another framing policy at %s than at %s: %w", s.Req, at, o.at, errRequestClash)
			case !hexpr.Identical(o.s.Body, s.Body):
				err = fmt.Errorf("plans: request %s is opened with another body at %s than at %s: %w", s.Req, at, o.at, errRequestClash)
			}
			if !slices.Contains(out, s.Req) {
				out = append(out, s.Req)
			}
		})
		return out, err
	}
	clientOpens, err := opens(loc, client)
	if err != nil {
		return nil, err
	}
	locOpens := make([][]hexpr.RequestID, nLoc)
	for i, l := range eng.locations {
		if locOpens[i], err = opens(l, eng.services[i]); err != nil {
			return nil, err
		}
	}
	// Dense request index space: every request of the world, in sorted
	// order, so a plan is an int32 vector (planOf maps it back).
	eng.reqs = make([]hexpr.RequestID, 0, len(first))
	for r := range first {
		eng.reqs = append(eng.reqs, r)
	}
	slices.Sort(eng.reqs)
	eng.nReq = len(eng.reqs)
	eng.reqIdx = make(map[hexpr.RequestID]int32, eng.nReq)
	eng.policies = make([]hexpr.PolicyID, eng.nReq)
	eng.bodies = make([]hexpr.Expr, eng.nReq)
	for i, r := range eng.reqs {
		eng.reqIdx[r] = int32(i)
		eng.policies[i], eng.bodies[i] = first[r].s.Policy, first[r].s.Body
	}
	dense := func(list []hexpr.RequestID) []int32 {
		out := make([]int32, len(list))
		for i, r := range list {
			out[i] = eng.reqIdx[r]
		}
		return out
	}
	eng.clientOpens = dense(clientOpens)
	eng.locOpens = make([][]int32, nLoc)
	for i, list := range locOpens {
		eng.locOpens[i] = dense(list)
	}
	eng.compl = make([]int8, eng.nReq*nLoc)
	eng.cands = make([][]int32, eng.nReq)
	return eng, nil
}

// compliant reports whether the service at location li complies with the
// body of request ri, through the compliance matrix.
func (eng *fusedEngine) compliant(ri, li int32) (bool, error) {
	c := &eng.compl[int(ri)*len(eng.locations)+int(li)]
	if *c == 0 {
		ok, err := eng.cache.Compliant(eng.bodies[ri], eng.services[li])
		if err != nil {
			return false, err
		}
		*c = 2
		if ok {
			*c = 1
		}
	}
	return *c == 1, nil
}

// candidates returns the locations (dense) whose service complies with the
// request's body, in deterministic (sorted-location) order — the
// branching set of a lazy session-open. Cached per request.
func (eng *fusedEngine) candidates(ri int32) ([]int32, error) {
	if locs := eng.cands[ri]; locs != nil {
		return locs, nil
	}
	locs := []int32{}
	for li := range eng.locations {
		ok, err := eng.compliant(ri, int32(li))
		if err != nil {
			return nil, err
		}
		if ok {
			locs = append(locs, int32(li))
		}
	}
	eng.cands[ri] = locs
	return locs, nil
}

// narena bump-allocates fnodes in 4096-entry blocks, addressable by dense
// index (fnode.idx doubles as the arena index). Besides
// removing per-object malloc/GC costs, it lays the nodes out in creation
// order, which is close to BFS order — the order replays touch them.
type narena struct {
	blocks [][]fnode
	n      int32
}

func (a *narena) alloc() (*fnode, int32) {
	if a.n>>arenaShift == int32(len(a.blocks)) {
		a.blocks = append(a.blocks, make([]fnode, 0, 1<<arenaShift))
	}
	b := &a.blocks[len(a.blocks)-1]
	*b = append(*b, fnode{})
	i := a.n
	a.n++
	return &(*b)[len(*b)-1], i
}

func (a *narena) at(i int32) *fnode {
	return &a.blocks[i>>arenaShift][i&(1<<arenaShift-1)]
}

// node interns (tree, monitor) into the shared graph, creating the node on
// first sight. The caller supplies the interned monitor signature,
// computed once per move group. The tree's one-entry node cache answers
// repeat lookups (the vast majority: worlds have few distinct signatures
// per tree) without the map.
func (eng *fusedEngine) node(ct *ctree, mon *history.Monitor, sigID intern.ID) *fnode {
	if n := ct.nd; n != nil && n.sigID == sigID {
		return n
	}
	k := intern.Pack(ct.id, sigID)
	i, slot, ok := eng.nodes.getOrSlot(k)
	if ok {
		n := eng.nodeArena.at(i)
		ct.nd = n
		return n
	}
	n, idx := eng.nodeArena.alloc()
	n.ct = ct
	n.mon = mon
	n.sigID = sigID
	n.done = ct.left == nil && hexpr.IsNil(ct.lp.expr)
	n.idx = idx
	eng.nodes.putAt(slot, k, idx)
	ct.nd = n
	return n
}

// advance computes the monitor of a move group: shared with the
// predecessor when the items are provably inert (nothing to re-key, sigID
// inherited), a fresh snapshot advanced over the items otherwise. A
// violation is a per-group fact (the candidates of an open share their
// items). The returned sigID is the interned signature of the returned
// monitor.
func (eng *fusedEngine) advance(n *fnode, items []history.Item, inert bool) (
	mon *history.Monitor, sigID intern.ID, violation hexpr.PolicyID, err error) {

	if len(items) == 0 || inert {
		return n.mon, n.sigID, hexpr.NoPolicy, nil
	}
	mon = n.mon.Snapshot()
	for _, it := range items {
		if aerr := mon.Append(it); aerr != nil {
			if verr, ok := aerr.(*history.ViolationError); ok {
				return nil, 0, verr.Policy, nil
			}
			return nil, 0, hexpr.NoPolicy, fmt.Errorf("verify: unexpected monitor error: %w", aerr)
		}
	}
	return mon, eng.tab.Key(mon.Signature()), hexpr.NoPolicy, nil
}

// buildGroups computes the outgoing move groups of the node from the
// compiled rows, in the order that, projected onto any one plan, is
// network.TreeMovesStep's: for a pair, the left subtree's moves
// (successors lifted through the shared right sibling), then the right's
// (symmetrically), then the Synch/Close moves of leaf pairs. Child rows
// come cached from treeRowFor — only the top-level lift (one pairFor per
// move) is done here, because a node's root tree is almost always unique
// to it (caching root rows was tried and lost: the extra row per root
// inflated the live heap for no reuse). Each group costs one monitor
// advance (candidates share their items) and one successor-node interning
// per edge. The groups are returned, not published: the caller owns the
// partial-expansion retry semantics.
func (eng *fusedEngine) buildGroups(n *fnode) ([]fgroup, error) {
	var out []fgroup
	var edges uint64 // flushed to the shared stats in one add
	defer func() {
		if edges > 0 {
			eng.stats.EdgesBuilt.Add(edges)
		}
	}()
	// side 0: successor is already the whole tree (root is a leaf, or a
	// Synch/Close collapsing the root pair). side 1/2: the move evolved
	// the left/right child and the successor is lifted over the sibling.
	emit := func(moves []cleafMove, side int) error {
		for i := range moves {
			mv := &moves[i]
			fg := fgroup{mv: mv}
			mon, sigID, violation, err := eng.advance(n, mv.moveItems(), mv.inert)
			if err != nil {
				return err
			}
			if violation != hexpr.NoPolicy {
				fg.ext = &fgext{reqIdx: mv.reqIdx, violation: violation}
			} else {
				lift := func(s *ctree) *ctree {
					switch side {
					case 1:
						return eng.pairFor(s, n.ct.right)
					case 2:
						return eng.pairFor(n.ct.left, s)
					}
					return s
				}
				if mv.reqIdx < 0 {
					fg.next = eng.node(lift(mv.next), mon, sigID)
					edges++
					// The return value is deliberately dropped: the per-state
					// charge at the next pop observes the sticky exhaustion.
					eng.opts.Budget.ConsumeEdges(1)
				} else {
					// locIdxs shared: candidate sets are plan-independent.
					ext := &fgext{reqIdx: mv.reqIdx, violation: hexpr.NoPolicy,
						locIdxs: mv.ext.locIdxs, cnexts: make([]*fnode, len(mv.ext.cnexts))}
					for ci, c := range mv.ext.cnexts {
						ext.cnexts[ci] = eng.node(lift(c), mon, sigID)
					}
					fg.ext = ext
					edges += uint64(len(mv.ext.cnexts))
					eng.opts.Budget.ConsumeEdges(int64(len(mv.ext.cnexts)))
				}
			}
			out = append(out, fg)
		}
		return nil
	}
	t := n.ct
	if t.left == nil {
		row, err := eng.rowFor(t)
		if err != nil {
			return nil, err
		}
		out = make([]fgroup, 0, len(row.moves))
		if err := emit(row.moves, 0); err != nil {
			return nil, err
		}
		return out, nil
	}
	lrow, err := eng.treeRowFor(t.left)
	if err != nil {
		return nil, err
	}
	rrow, err := eng.treeRowFor(t.right)
	if err != nil {
		return nil, err
	}
	// Synch/Close moves of a bottomed-out session. The root pair is unique
	// to this node, so the moves go straight into the groups (via a
	// scratch row) instead of being cached on the ctree.
	var scratch leafRow
	if t.left.left == nil && t.right.left == nil {
		eng.pairMovesInto(&scratch, t.left, t.right)
	}
	out = make([]fgroup, 0, len(lrow.moves)+len(rrow.moves)+len(scratch.moves))
	if err := emit(lrow.moves, 1); err != nil {
		return nil, err
	}
	if err := emit(rrow.moves, 2); err != nil {
		return nil, err
	}
	if err := emit(scratch.moves, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// ensureExpanded computes the node's outgoing groups once: the compiled
// move relation, one monitor advance per group (candidates share their
// items), and the successor nodes. Every plan whose replay reaches this
// state reuses the result.
func (n *fnode) ensureExpanded(eng *fusedEngine) error {
	if n.expanded {
		return n.err
	}
	// Budget exhaustion aborts the expansion *without* recording it in
	// n.err: the cutoff is a property of this run's budget, not of the
	// node, and a cached exhaustion would poison replays of plans whose
	// verdict was already decided.
	if e := eng.opts.Budget.Exhausted(); e != nil {
		return e
	}
	if faultinject.Enabled() {
		faultinject.Fire(faultinject.FusedExpand, n.ct.treeKey())
	}
	// Built groups accumulate in a local slice stored only on success:
	// if a panic (injected or genuine) unwinds mid-expansion, the node
	// stays unexpanded and a sibling plan's retry rebuilds from scratch
	// instead of appending duplicates after a partial n.groups.
	built, err := eng.buildGroups(n)
	n.expanded = true
	if err != nil {
		n.err = err
		return err
	}
	n.groups = built
	eng.stats.StatesExpanded.Add(1)
	return nil
}

// unknownReport closes a replay cut off by the budget: Unknown verdict
// (never Valid — the projection was not exhausted), the budget's reason,
// the frontier of discovered-but-unexplored states.
func unknownReport(report *verify.Report, e *budget.ExhaustedError, frontier int) *verify.Report {
	report.Verdict = verify.Unknown
	report.Reason = e.Error()
	report.Frontier = frontier
	return report
}

// rvis is one slot of a replayer's visited array: the epoch stamps the
// replay the slot belongs to (bumping the epoch clears the whole array in
// O(1)), prev/gi record how the replay first reached the node (the trace
// label lives in the predecessor's group). prev == nil marks the start.
type rvis struct {
	epoch uint32
	gi    int32
	prev  *fnode
}

// pmove is one projected move of the current replay state: the group index
// (the trace label is the group's), the policy the move violates (if any)
// and the successor node (nil for violating moves).
type pmove struct {
	gi        int32
	violation hexpr.PolicyID
	next      *fnode
}

// replayer holds the engine's reusable replay scratch: the epoch-stamped
// visited array (indexed by fnode.idx — a slot access instead of a map
// operation per visit), BFS ring, projected-move buffer and decision
// accumulators persist across plans, so assessing the n-th plan of a
// large family allocates almost nothing. A plan is its dense vector:
// vec[reqIdx] = locIdx, or -1 when the request is unbound.
type replayer struct {
	visited []rvis
	epoch   uint32
	queue   ring.Queue[*fnode]
	moves   []pmove
	// used accumulates the binding decisions the replay consulted, in
	// consultation order; usedMark dedups them per replay epoch.
	used     []decision
	usedMark []uint32
	// seenMark/seenEpoch dedup the static compliance walk.
	seenMark  []uint32
	seenEpoch uint32
	// states counts this replay's visits, flushed to the stats in one add
	// per plan.
	states uint64
	// flow, when set, observes the replay as it observes a kernel
	// exploration (record); flowAt maps a visited node's fnode.idx to its
	// discovery index in the recorder.
	flow   *verify.FlowRecorder
	flowAt []int32
}

// newReplayer returns fresh replay scratch, building the start node first
// if no replayer has needed it yet.
func (eng *fusedEngine) newReplayer() *replayer {
	if eng.start == nil {
		mon := history.NewMonitor(eng.table)
		eng.start = eng.node(eng.leaf(eng.loc, eng.locIDs[eng.loc], eng.client), mon, eng.tab.Key(mon.Signature()))
	}
	return &replayer{
		usedMark: make([]uint32, eng.nReq),
		seenMark: make([]uint32, eng.nReq),
	}
}

// planOf builds the plan map of a dense plan vector, for the readers of
// one: a family's and a stream's results, a panic's label and fault
// injection. The sweep itself never builds one.
func (eng *fusedEngine) planOf(vec []int32) network.Plan {
	n := 0
	for _, li := range vec {
		if li >= 0 {
			n++
		}
	}
	plan := make(network.Plan, n)
	for ri, li := range vec {
		if li >= 0 {
			plan[eng.reqs[ri]] = eng.locations[li]
		}
	}
	return plan
}

// slot returns the visited slot of n, growing the array when expansion has
// minted nodes past its end mid-replay.
func (r *replayer) slot(n *fnode) *rvis {
	if int(n.idx) >= len(r.visited) {
		size := len(r.visited) * 2
		if size <= int(n.idx) {
			size = int(n.idx) + 64
		}
		grown := make([]rvis, size)
		copy(grown, r.visited)
		r.visited = grown
	}
	return &r.visited[n.idx]
}

// discovered records n, just visited by the replay, as the recorder's
// state reached from state parent by a move labelled label.
func (r *replayer) discovered(n *fnode, parent int32, label *hexpr.Label) {
	if len(r.flowAt) < len(r.visited) {
		r.flowAt = append(r.flowAt, make([]int32, len(r.visited)-len(r.flowAt))...)
	}
	r.flowAt[n.idx] = r.flow.State(parent, label, n.mon)
}

// record feeds the recorder one projected move of n, in the kernel's
// order: each history item the move logs, the target when the move
// discovered it, and the move.
func (r *replayer) record(n *fnode, m pmove, fresh bool) {
	mv := n.groups[m.gi].mv
	from := r.flowAt[n.idx]
	if mv.inert && mv.label.Kind == hexpr.LEvent {
		// Inert moves dropped their items at row-build time; of those,
		// only an event move logs one.
		r.flow.Item(from, mv.label, n.mon, history.EventItem(mv.label.Event))
	}
	for _, it := range mv.moveItems() {
		r.flow.Item(from, mv.label, n.mon, it)
	}
	if fresh {
		r.discovered(m.next, from, mv.label)
	}
	r.flow.Move(from, r.flowAt[m.next.idx])
}

func (r *replayer) trace(n *fnode) []network.TraceEntry {
	depth := 0
	for p := r.visited[n.idx]; p.prev != nil; p = r.visited[p.prev.idx] {
		depth++
	}
	// Non-nil even when empty, like verify's trace materialisation.
	out := make([]network.TraceEntry, depth)
	for p := r.visited[n.idx]; p.prev != nil; p = r.visited[p.prev.idx] {
		depth--
		out[depth] = network.TraceEntry{Label: *p.prev.groups[p.gi].mv.label}
	}
	return out
}

// replay recovers one plan's verification report from the shared graph: a
// BFS over the projection that keeps, in every open group, the candidate
// the plan selects. It visits exactly the states verify.CheckPlanOpts
// would (same keying, same move order), so verdicts, witnesses, traces and
// even state counts coincide — but each visit is an indexed-slot lookup
// over prebuilt edges, and every binding consultation is an int32 vector
// read. The binding decisions consulted, in consultation order, are left
// in r.used for the replay memo. With r.flow set, the replay also feeds
// the recorder and charges each visit's projected moves as edges, as the
// kernel's exploration does, so a flow read off the graph stops at the
// same budget cutoff as verify.ExploreFlow.
func (eng *fusedEngine) replay(vec []int32, r *replayer) (*verify.Report, error) {
	r.used = r.used[:0]
	r.epoch++
	r.queue.Reset()
	r.states = 0
	s := r.slot(eng.start)
	*s = rvis{epoch: r.epoch}
	r.queue.Push(eng.start)
	if r.flow != nil {
		r.discovered(eng.start, -1, nil)
	}
	report := &verify.Report{}
	for r.queue.Len() > 0 {
		report.States++
		if report.States > verify.MaxStates {
			return nil, fmt.Errorf("verify: exploration exceeds %d states", verify.MaxStates)
		}
		if e := eng.opts.Budget.ConsumeStates(1); e != nil {
			report.States--
			return unknownReport(report, e, r.queue.Len()), nil
		}
		n := r.queue.Pop()
		r.states++
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.FusedReplay, n.ct.treeKey())
		}
		if err := n.ensureExpanded(eng); err != nil {
			var e *budget.ExhaustedError
			if errors.As(err, &e) {
				report.States--
				return unknownReport(report, e, r.queue.Len()+1), nil
			}
			return nil, err
		}
		r.moves = r.moves[:0]
		for gi := range n.groups {
			g := &n.groups[gi]
			if g.ext == nil {
				r.moves = append(r.moves, pmove{int32(gi), hexpr.NoPolicy, g.next})
				continue
			}
			if g.ext.violation != hexpr.NoPolicy {
				// A violating move — if it is an open, it violates whichever
				// service it selects: no binding decision is consulted, so
				// every plan reaching this state shares the verdict.
				r.moves = append(r.moves, pmove{int32(gi), g.ext.violation, nil})
				continue
			}
			li := vec[g.ext.reqIdx]
			if r.usedMark[g.ext.reqIdx] != r.epoch {
				r.usedMark[g.ext.reqIdx] = r.epoch
				r.used = append(r.used, decision{req: g.ext.reqIdx, loc: li})
			}
			for ci, cli := range g.ext.locIdxs {
				if cli == li {
					r.moves = append(r.moves, pmove{int32(gi), hexpr.NoPolicy, g.ext.cnexts[ci]})
					break
				}
			}
			// No matching candidate (request unbound, or bound outside the
			// candidate set): the open is not enabled, exactly as in the
			// direct exploration.
		}
		if r.flow != nil {
			if e := eng.opts.Budget.ConsumeEdges(int64(len(r.moves))); e != nil {
				return unknownReport(report, e, r.queue.Len()), nil
			}
		}
		if len(r.moves) == 0 && !n.done {
			report.Verdict = verify.CommunicationDeadlock
			report.Trace = r.trace(n)
			report.StuckTree = n.ct.treeKey()
			return report, nil
		}
		for _, m := range r.moves {
			if m.violation != hexpr.NoPolicy {
				report.Verdict = verify.SecurityViolation
				report.Policy = m.violation
				report.Trace = append(r.trace(n), network.TraceEntry{Label: *n.groups[m.gi].mv.label})
				return report, nil
			}
			s := r.slot(m.next)
			fresh := s.epoch != r.epoch
			if fresh {
				*s = rvis{epoch: r.epoch, gi: m.gi, prev: n}
				r.queue.Push(m.next)
			}
			if r.flow != nil {
				r.record(n, m, fresh)
			}
		}
	}
	report.Verdict = verify.Valid
	return report, nil
}

// assessReplay returns the plan's exploration report, through the decision
// memo: a hit costs one trie walk; a miss replays and files the report
// under the decisions the replay consulted.
func (eng *fusedEngine) assessReplay(vec []int32, r *replayer) (*verify.Report, error) {
	for t := eng.memo; t != nil; {
		if t.leaf {
			rep := *t.report
			eng.stats.ReplayMemoHits.Add(1)
			return &rep, nil
		}
		if t.req < 0 {
			break // placeholder without a filed report yet
		}
		t = t.branches[vec[t.req]]
	}

	report, err := eng.replay(vec, r)
	eng.stats.ReplayStates.Add(r.states)
	if err != nil {
		return nil, err
	}
	// An Unknown report reflects this run's cutoff, not a property of the
	// consulted decisions — filing it would serve a stale non-verdict to
	// every later plan sharing the prefix. Only definite verdicts memoise.
	if report.Verdict == verify.Unknown {
		return report, nil
	}

	node := eng.memo
	if node == nil {
		node = &decisionTrie{req: -1}
		eng.memo = node
	}
	for _, d := range r.used {
		if node.leaf {
			break // defensive: a filed prefix would have answered the lookup
		}
		if node.req < 0 {
			node.req = d.req
			node.branches = map[int32]*decisionTrie{}
		}
		child := node.branches[d.loc]
		if child == nil {
			child = &decisionTrie{req: -1}
			node.branches[d.loc] = child
		}
		node = child
	}
	if !node.leaf && node.req < 0 {
		node.leaf = true
		node.report = report
	}
	rep := *report
	return &rep, nil
}

// staticCheck mirrors the kernel's static prechecks (verify.CheckPlanOpts)
// over the engine's request lists: the call-cycle DFS reads the plan
// vector, and the compliance check traverses the requests in the
// depth-first, first-occurrence order of verify.PlannedRequests — same
// first failure, same witness strings, no per-plan expression walks.
// Compliance verdicts come from the engine's matrix (the shared cache is
// consulted once per distinct cell, and again only on the failure path,
// to fetch the witness string). The equivalence property test pins the
// parity.
func (eng *fusedEngine) staticCheck(vec []int32, r *replayer) (*verify.Report, error) {
	if !eng.cycleFree {
		succ := func(n hexpr.Location) []hexpr.Location {
			reqs := eng.clientOpens
			if n != verify.ClientNode {
				reqs = eng.locOpens[eng.locIdx[n]]
			}
			var out []hexpr.Location
			for _, ri := range reqs {
				if li := vec[ri]; li >= 0 {
					out = append(out, eng.locations[li])
				}
			}
			return out
		}
		if cyc := verify.CallCycleFunc(succ); cyc != nil {
			return &verify.Report{
				Verdict: verify.UnboundedNesting,
				Witness: fmt.Sprintf("cyclic service calls: %s", verify.LocPath(cyc)),
			}, nil
		}
	}
	r.seenEpoch++
	var walk func(list []int32) (*verify.Report, error)
	walk = func(list []int32) (*verify.Report, error) {
		for _, ri := range list {
			if r.seenMark[ri] == r.seenEpoch {
				continue
			}
			r.seenMark[ri] = r.seenEpoch
			li := vec[ri]
			if li < 0 {
				continue // unbound: the exploration reports the deadlock with a trace
			}
			ok, err := eng.compliant(ri, li)
			if err != nil {
				return nil, err
			}
			if !ok {
				_, witness, err := eng.cache.Compliance(eng.bodies[ri], eng.services[li])
				if err != nil {
					return nil, err
				}
				return &verify.Report{
					Verdict: verify.NotCompliant,
					Request: eng.reqs[ri],
					Witness: fmt.Sprintf("service at %s: %s", eng.locations[li], witness),
				}, nil
			}
			if rep, err := walk(eng.locOpens[li]); err != nil || rep != nil {
				return rep, err
			}
		}
		return nil, nil
	}
	return walk(eng.clientOpens)
}

// computeCycleSkip decides whether per-plan cycle detection is needed: it
// runs one DFS over the union call graph in which every request points at
// every location enumeration could bind it to — the compliant candidates
// under pruning, the whole repository otherwise. Every assessed plan's
// call graph is a subgraph of the union, so an acyclic union (from the
// client) proves every plan acyclic and staticCheck skips its per-plan
// DFS; a cyclic union just keeps the per-plan check.
func (eng *fusedEngine) computeCycleSkip() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	nLoc := len(eng.locations)
	every := make([]int32, nLoc)
	for i := range every {
		every[i] = int32(i)
	}
	color := make([]int8, nLoc+1) // node nLoc is the client
	var dfs func(n int) (bool, error)
	dfs = func(n int) (bool, error) {
		color[n] = grey
		reqs := eng.clientOpens
		if n < nLoc {
			reqs = eng.locOpens[n]
		}
		for _, ri := range reqs {
			targets := every
			if eng.opts.PruneNonCompliant {
				var err error
				if targets, err = eng.candidates(ri); err != nil {
					return false, err
				}
			}
			for _, m := range targets {
				switch color[m] {
				case grey:
					return true, nil
				case white:
					if cyc, err := dfs(int(m)); err != nil || cyc {
						return cyc, err
					}
				}
			}
		}
		color[n] = black
		return false, nil
	}
	cyc, err := dfs(nLoc)
	if err != nil {
		return err
	}
	eng.cycleFree = !cyc
	return nil
}

// assess produces one plan's report: the static prechecks (mirroring
// verify.CheckPlanOpts, so witnesses are identical by construction), then
// the memoised replay, both indexing the plan's dense vector.
func (eng *fusedEngine) assess(vec []int32, r *replayer) (*verify.Report, error) {
	eng.stats.PlansAssessed.Add(1)
	if rep, err := eng.staticCheck(vec, r); err != nil || rep != nil {
		return rep, err
	}
	return eng.assessReplay(vec, r)
}

// assessGuarded is assess inside a panic guard: a panic anywhere in the
// plan's assessment (expansion, replay, static walk — injected or
// genuine) becomes a typed *budget.InternalError whose Unit is the plan
// key, the plan's verdict degrades to Unknown, and the error is returned
// alongside the report so the caller can report it after the remaining
// plans are assessed. The plan key is rendered lazily — only fault
// injection and the panic path build the plan. The replayer stays
// reusable: replay and staticCheck reset every piece of scratch state at
// entry.
func (eng *fusedEngine) assessGuarded(vec []int32, r *replayer) (*verify.Report, error) {
	var rep *verify.Report
	err := budget.GuardLazy(func() string { return "plan " + eng.planOf(vec).Key() }, func() error {
		if faultinject.Enabled() {
			faultinject.Fire(faultinject.PlansWorker, eng.planOf(vec).Key())
		}
		var err error
		rep, err = eng.assess(vec, r)
		return err
	})
	if err != nil {
		var ie *budget.InternalError
		if errors.As(err, &ie) {
			return &verify.Report{Verdict: verify.Unknown, Reason: ie.Error()}, err
		}
		return nil, err
	}
	return rep, nil
}

// overCap reports whether a capped family provably holds more than
// MaxPlans plans, by counting it instead of enumerating it. A request's
// count c(r) sums, over its candidates in location order (the compliant
// ones under PruneNonCompliant, every location otherwise), the product of
// c(r′) over the requests the candidate's service opens (locOpens); the
// family's count is the product of c(r) over clientOpens. That is the
// number of plans enumerate reaches as long as no request is reached
// twice along one binding path, so the count gives up, and leaves the
// family to enumerate, on a request met again while it is being counted
// (a cycle), on two requests of one opener whose reach sets meet, on a
// compliance error and on an exhausted budget. Counts saturate at
// MaxPlans+1, and a request's scan stops once its count does: a saturated
// factor times factors ≥ 1 stays saturated and a zero factor still zeroes
// the product, so a saturated family count is a lower bound on the plans
// enumerate would reach. Scanning lazily also keeps the count near the
// compliance cells the truncated enumeration asks for: on the Chained
// worlds, exactly those.
func (eng *fusedEngine) overCap() bool {
	if eng.opts.MaxPlans <= 0 || eng.opts.Budget.Exhausted() != nil {
		return false
	}
	sat := uint64(eng.opts.MaxPlans) + 1
	const ( // a request's state; zero until the count meets it
		counting = 1 + iota
		counted
	)
	words := (eng.nReq + 63) / 64
	row := func(set []uint64, i int) []uint64 { return set[i*words : (i+1)*words] }
	// reach holds, per request, the requests its counted candidates lead
	// to (itself included), then the client's; sibs is each request's
	// scratch for the requests one candidate opens.
	reach := make([]uint64, (eng.nReq+1)*words)
	sibs := make([]uint64, eng.nReq*words)
	count := make([]uint64, eng.nReq)
	state := make([]int8, eng.nReq)
	var req func(ri int32) (uint64, bool)
	// opened multiplies the counts of the requests one opener opens and
	// adds their reach sets to into; false when two of them meet.
	opened := func(list []int32, into []uint64) (uint64, bool) {
		prod := uint64(1)
		for _, ri := range list {
			c, ok := req(ri)
			if !ok {
				return 0, false
			}
			for w, bits := range row(reach, int(ri)) {
				if into[w]&bits != 0 {
					return 0, false
				}
				into[w] |= bits
			}
			if prod = satMul(prod, c, sat); prod == 0 {
				return 0, true
			}
		}
		return prod, true
	}
	req = func(ri int32) (uint64, bool) {
		switch state[ri] {
		case counting:
			return 0, false
		case counted:
			return count[ri], true
		}
		state[ri] = counting
		mine, sib := row(reach, int(ri)), row(sibs, int(ri))
		mine[ri/64] |= 1 << (ri % 64)
		var c uint64
		for li := 0; li < len(eng.locations) && c < sat; li++ {
			if eng.opts.PruneNonCompliant {
				ok, err := eng.compliant(ri, int32(li))
				if err != nil {
					return 0, false
				}
				if !ok {
					continue
				}
			}
			clear(sib)
			p, ok := opened(eng.locOpens[li], sib)
			if !ok {
				return 0, false
			}
			for w, bits := range sib {
				mine[w] |= bits
			}
			c = satAdd(c, p, sat)
		}
		state[ri], count[ri] = counted, c
		return c, true
	}
	total, ok := opened(eng.clientOpens, row(reach, eng.nReq))
	return ok && total == sat
}

// satAdd and satMul are a+b and a·b saturated at s, for a, b ≤ s: neither
// overflows for any s.
func satAdd(a, b, s uint64) uint64 {
	if a >= s-b {
		return s
	}
	return a + b
}

func satMul(a, b, s uint64) uint64 {
	if b != 0 && a > s/b {
		return s
	}
	return min(a*b, s)
}

// tooMany is the error of a family past MaxPlans.
func (eng *fusedEngine) tooMany() error {
	return fmt.Errorf("plans: more than %d complete plans", eng.opts.MaxPlans)
}

// enumerate mirrors the legacy enumerator exactly — same candidate order,
// same pruning, same MaxPlans semantics — so both engines assess the same
// plans. A capped family is counted first (overCap), and one the count
// proves past MaxPlans is refused before any plan is enumerated; when the
// count cannot decide, the enumeration fails at the (MaxPlans+1)-th plan.
// It emits each plan as its dense vector, never as a map (planOf
// builds one where a reader needs it). The pending lists of every
// recursion level share one growing buffer: a child appends its
// service's requests at the tail and the parent truncates on backtrack,
// so the traversal order matches the rest-then-pending concatenation of
// the legacy enumerator while enumeration allocates only the returned
// vectors. Pruning reads the compliance matrix (backtracking re-asks the
// same pair on every branch — millions of times on deep workloads), and
// pruned bindings are counted in the stats.
func (eng *fusedEngine) enumerate() ([][]int32, error) {
	if eng.overCap() {
		return nil, eng.tooMany()
	}
	var vecs [][]int32
	cur := make([]int32, eng.nReq)
	for i := range cur {
		cur[i] = -1
	}
	buf := append([]int32(nil), eng.clientOpens...)
	var expand func(start int) error
	expand = func(start int) error {
		for start < len(buf) && cur[buf[start]] >= 0 {
			start++ // already bound (repeated request in scope)
		}
		if start == len(buf) {
			if eng.opts.MaxPlans > 0 && len(vecs) >= eng.opts.MaxPlans {
				return eng.tooMany()
			}
			if eng.opts.Budget.Exhausted() != nil {
				return errStopEnumeration
			}
			vecs = append(vecs, slices.Clone(cur))
			return nil
		}
		ri := buf[start]
		for li := range eng.locations {
			if eng.opts.PruneNonCompliant {
				ok, err := eng.compliant(ri, int32(li))
				if err != nil {
					return err
				}
				if !ok {
					eng.stats.BindingsPruned.Add(1)
					continue
				}
			}
			cur[ri] = int32(li)
			mark := len(buf)
			buf = append(buf, eng.locOpens[li]...)
			err := expand(start + 1)
			buf = buf[:mark]
			cur[ri] = -1
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(0); err != nil && err != errStopEnumeration {
		return nil, err
	}
	return vecs, nil
}

// AssessStream enumerates every complete plan for the client and streams
// its assessment to yield, in deterministic enumeration order (depth-first
// over pending requests, candidates in sorted-location order). A non-nil
// error from yield stops the stream and is returned. Assessments come from
// the fused engine: plans are validated against one shared state graph,
// one after another on the calling goroutine.
//
// The stream reads and files no plan report, in either tier: it serves
// one-off plan families (a served plans request, -stream), and filing
// every plan of each novel family would cost a store write per plan and
// keep every report in memory. The compliance tiers underneath are used
// as usual; AssessAll is the tiered sweep.
func AssessStream(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, opts Options,
	yield func(Assessment) error) error {

	eng, err := newFusedEngine(repo, table, loc, client, opts)
	if err != nil {
		return err
	}
	vecs, err := eng.enumerate()
	if err != nil {
		return err
	}
	all := make([]int, len(vecs))
	for i := range all {
		all[i] = i
	}
	return eng.run(vecs, all, func(i int, r *verify.Report) error {
		return yield(Assessment{Plan: eng.planOf(vecs[i]), Report: r})
	})
}

// keyOrder returns the enumeration indices of vecs in the order of their
// plans' network.Plan.Key, the order a sweep reports in. The keys are
// built without plan maps: the "req>loc" fragments are precomputed per
// (request, candidate) pair and concatenated in sorted-request order
// (the dense order), skipping unbound requests — byte-identical to
// Plan.Key, as the cross-engine equivalence tests pin against the legacy
// engine, which sorts on the map-built keys.
func (eng *fusedEngine) keyOrder(vecs [][]int32) []int32 {
	frags := make([][]string, eng.nReq)
	for ri := range frags {
		fs := make([]string, len(eng.locations))
		for li, l := range eng.locations {
			fs[li] = string(eng.reqs[ri]) + ">" + string(l)
		}
		frags[ri] = fs
	}
	keys := make([]string, len(vecs))
	order := make([]int32, len(vecs))
	var buf []byte
	for vi, vec := range vecs {
		buf = append(buf[:0], '{')
		first := true
		for ri, li := range vec {
			if li < 0 {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, frags[ri][li]...)
		}
		buf = append(buf, '}')
		keys[vi] = string(buf)
		order[vi] = int32(vi)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	return order
}

// run assesses the plan of vecs[i] for every i in idxs, in that order,
// on the calling goroutine, and yields each report with its index. Every
// listed plan is yielded exactly once, also under budget exhaustion and
// isolated plan panics; a non-nil error from yield stops the run and is
// returned. The first isolated panic is returned as a
// *budget.InternalError once every plan is yielded.
func (eng *fusedEngine) run(vecs [][]int32, idxs []int,
	yield func(int, *verify.Report) error) error {

	// Presize the canonical-pair and node tables now that the workload
	// scale is known: the explored graph grows with plans × requests, and
	// letting the tables double their way up instead was a third of the
	// engine's allocated bytes (see u64map.reserve). The cap keeps a wide
	// plan space with a small shared graph from over-allocating — beyond
	// it, organic growth takes over.
	if n := len(idxs) * eng.nReq; n > 0 {
		const maxReserve = 1 << 21
		eng.pairs.reserve(min(2*n, 2*maxReserve))
		eng.nodes.reserve(min(n, maxReserve/2))
	}
	if err := eng.computeCycleSkip(); err != nil {
		return err
	}
	r := eng.newReplayer()
	var firstInternal *budget.InternalError
	for _, i := range idxs {
		rep, err := eng.assessGuarded(vecs[i], r)
		if err != nil {
			var ie *budget.InternalError
			if !errors.As(err, &ie) {
				return err
			}
			if firstInternal == nil {
				firstInternal = ie
			}
		}
		if err := yield(i, rep); err != nil {
			return err
		}
	}
	if firstInternal != nil {
		return firstInternal
	}
	return nil
}
