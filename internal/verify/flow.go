package verify

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"susc/internal/budget"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
)

// This file is the whole-network security-flow core behind `susc audit`:
// an abstract interpretation of one client under one plan that annotates
// every reachable event occurrence and framing opening with the *active
// policy set* AP (§3.1) at that instant — the framings whose scope,
// including the open_{r,φ}…close_{r,φ} session framings crossed via the
// plan binding, encloses the occurrence. The exploration is the kernel's
// one-component call, the one CheckPlanOpts makes, so the flow facts hold
// exactly for the histories the network semantics can produce.

// EventFlow is one distinct event occurrence: an event reachable with a
// particular active policy set. Trace is a BFS-minimal label sequence from
// the initial configuration whose last label performs the event.
type EventFlow struct {
	Event  string   `json:"event"`
	Active []string `json:"active,omitempty"`
	Trace  []string `json:"trace,omitempty"`
}

// OpenFlow is one distinct framing opening: a ⌊φ (or session open_{r,φ})
// reachable with a particular ambient active set, sampled just before the
// opening takes effect.
type OpenFlow struct {
	Policy  string   `json:"policy"`
	Ambient []string `json:"ambient,omitempty"`
	Trace   []string `json:"trace,omitempty"`
}

// LeakFlow is a definite framing-scope leak: a reachable configuration
// with φ active from which no configuration with φ inactive is reachable —
// on every continuation the scope stays open forever.
type LeakFlow struct {
	Policy string   `json:"policy"`
	Trace  []string `json:"trace,omitempty"`
}

// PlanFlow is the flow-audit record of one (client, plan) pair. The
// occurrence lists are only meaningful when Verdict is "valid" (the plan's
// full, finite state space was explored); other verdicts carry just the
// classification, mirroring Verdict strings.
type PlanFlow struct {
	Verdict string      `json:"verdict"`
	Reason  string      `json:"reason,omitempty"`
	States  int         `json:"states"`
	Events  []EventFlow `json:"events,omitempty"`
	Opens   []OpenFlow  `json:"opens,omitempty"`
	Leaks   []LeakFlow  `json:"leaks,omitempty"`
	// LeaksSkipped: the table has more than 64 policies, beyond the dense
	// activation bitmask the leak analysis runs on.
	LeaksSkipped bool `json:"leaks_skipped,omitempty"`
}

// Valid reports whether the flow describes a fully explored valid plan.
func (f *PlanFlow) Valid() bool { return f.Verdict == Valid.String() }

// EncodeFlow serialises a flow record for the persistent store.
func EncodeFlow(f *PlanFlow) ([]byte, error) { return json.Marshal(f) }

// DecodeFlow is the inverse of EncodeFlow.
func DecodeFlow(raw []byte) (*PlanFlow, error) {
	var f PlanFlow
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// FlowRecorder is the flow audit's bookkeeping. An exploration of one
// plan feeds it through three observers, in BFS order: State for every
// newly discovered state (the initial one first), Item for every history
// item a move logs, and Move for every move. Flow then turns what was
// recorded into the plan's PlanFlow: the first (event, active set) and
// (framing, ambient set) occurrences with their BFS-minimal witness
// traces, sorted, and the definite scope leaks. Two explorations feed it —
// the kernel's, in ExploreFlow, and the fused plan engine's replay over
// its shared graph (internal/plans) — so both yield the same record.
// Reset readies a recorder, zero or used, for the next plan.
type FlowRecorder struct {
	ct   *policy.CompiledTable
	wide bool // >64 policies: keyed on the activation map, leaks skipped
	evs  map[occKey]*occurrence
	ops  map[occKey]*occurrence
	// Per state, by discovery index: its BFS parent (-1 for the initial
	// state), the label of the move that discovered it, and its
	// active-framing bitmask; and every move as a (from, to) pair.
	parents []int32
	labels  []*hexpr.Label
	masks   []uint64
	edges   [][2]int32
}

// occKey identifies one occurrence: an event rendering or a policy, with
// the active set as a bitmask, or, for wide tables, as the joined ids.
type occKey struct {
	name string
	mask uint64
	ids  string
}

// occurrence is the first sighting of an occKey: the active ids, the state
// the move leaves and the move's label.
type occurrence struct {
	name  string
	ids   []string
	at    int32
	label *hexpr.Label
}

// Reset clears the recorder for a new exploration over table.
func (r *FlowRecorder) Reset(table *policy.Table) {
	r.ct = table.Compiled()
	r.wide = r.ct.Len() > 64
	if r.evs == nil {
		r.evs, r.ops = map[occKey]*occurrence{}, map[occKey]*occurrence{}
	}
	clear(r.evs)
	clear(r.ops)
	r.parents, r.labels, r.masks, r.edges = r.parents[:0], r.labels[:0], r.masks[:0], r.edges[:0]
}

// State records a newly discovered state, reached from state parent by a
// move labelled label (-1 and nil for the initial state), with monitor
// mon, and returns its discovery index.
func (r *FlowRecorder) State(parent int32, label *hexpr.Label, mon *history.Monitor) int32 {
	r.parents = append(r.parents, parent)
	r.labels = append(r.labels, label)
	r.masks = append(r.masks, mon.ActiveMask())
	return int32(len(r.parents) - 1)
}

// Item records one history item that a move labelled label logs from state
// from, whose monitor is mon. Events and policy framing openings are
// recorded, each at its first sighting, with mon's active set: each is the
// only item its move logs (network.TreeMoves), so that is the set at the
// occurrence. Other items, framing closes, are not read.
func (r *FlowRecorder) Item(from int32, label *hexpr.Label, mon *history.Monitor, it history.Item) {
	var occs map[occKey]*occurrence
	var k occKey
	switch {
	case it.Kind == history.ItemEvent:
		occs, k.name = r.evs, it.Event.String()
	case it.Kind == history.ItemFrameOpen && it.Policy != hexpr.NoPolicy:
		occs, k.name = r.ops, string(it.Policy)
	default:
		return
	}
	var ids []string
	if r.wide {
		for id := range mon.Active() {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		k.ids = strings.Join(ids, "\x01")
	} else {
		k.mask = mon.ActiveMask()
	}
	if _, ok := occs[k]; ok {
		return
	}
	if !r.wide {
		for i := 0; i < r.ct.Len(); i++ {
			if k.mask&(1<<uint(i)) != 0 {
				ids = append(ids, string(r.ct.IDs()[i]))
			}
		}
	}
	occs[k] = &occurrence{name: k.name, ids: ids, at: from, label: label}
}

// Move records a move from state from to state to, a new or a known one.
func (r *FlowRecorder) Move(from, to int32) { r.edges = append(r.edges, [2]int32{from, to}) }

// Flow closes the recording into the plan's flow record under the
// exploration's report. Only a Valid report — the whole finite space
// explored — carries occurrences and leaks; any other verdict carries just
// its reason. Each step of the leak analysis charges b, and exhaustion
// marks the leaks skipped.
func (r *FlowRecorder) Flow(rep *Report, b *budget.Budget) *PlanFlow {
	flow := &PlanFlow{Verdict: rep.Verdict.String(), States: rep.States}
	switch rep.Verdict {
	case SecurityViolation:
		flow.Reason = fmt.Sprintf("policy %s violated", rep.Policy)
		return flow
	case CommunicationDeadlock:
		flow.Reason = rep.StuckTree
		return flow
	case NotCompliant, UnboundedNesting:
		flow.Reason = rep.Witness
		return flow
	case Unknown:
		flow.Reason = rep.Reason
		return flow
	}

	// Witness traces share their prefixes: each state's discovering label
	// is rendered once.
	rendered := make([]string, len(r.parents))
	traceOf := func(at int32, extra *hexpr.Label) []string {
		depth := 0
		for p := at; r.parents[p] >= 0; p = r.parents[p] {
			depth++
		}
		out := make([]string, depth, depth+1)
		if extra != nil {
			out = append(out, extra.String())
		}
		for p := at; r.parents[p] >= 0; p = r.parents[p] {
			depth--
			if rendered[p] == "" {
				rendered[p] = r.labels[p].String()
			}
			out[depth] = rendered[p]
		}
		return out
	}

	// Materialise occurrences in a deterministic order: events by
	// (event, active set), openings by (policy, ambient set).
	for _, o := range r.evs {
		flow.Events = append(flow.Events, EventFlow{
			Event:  o.name,
			Active: o.ids,
			Trace:  traceOf(o.at, o.label),
		})
	}
	sort.Slice(flow.Events, func(i, j int) bool {
		a, b := flow.Events[i], flow.Events[j]
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		return strings.Join(a.Active, "\x01") < strings.Join(b.Active, "\x01")
	})
	for _, o := range r.ops {
		flow.Opens = append(flow.Opens, OpenFlow{
			Policy:  o.name,
			Ambient: o.ids,
			Trace:   traceOf(o.at, o.label),
		})
	}
	sort.Slice(flow.Opens, func(i, j int) bool {
		a, b := flow.Opens[i], flow.Opens[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return strings.Join(a.Ambient, "\x01") < strings.Join(b.Ambient, "\x01")
	})

	if r.wide {
		flow.LeaksSkipped = true
		return flow
	}
	// Leak analysis: for each policy ever active, a reachable state with
	// the policy active that cannot reach any state with it inactive is a
	// definite scope leak (the η♭ flattening never balances the opening).
	n := len(r.masks)
	preds := make([][]int32, n)
	for _, e := range r.edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	var anyMask uint64
	for _, m := range r.masks {
		anyMask |= m
	}
	for p := 0; p < r.ct.Len(); p++ {
		bit := uint64(1) << uint(p)
		if anyMask&bit == 0 {
			continue
		}
		can := make([]bool, n)
		var bq []int32
		for i, m := range r.masks {
			if m&bit == 0 {
				can[i] = true
				bq = append(bq, int32(i))
			}
		}
		for len(bq) > 0 {
			if b.Check() != nil {
				flow.LeaksSkipped = true
				return flow
			}
			i := bq[0]
			bq = bq[1:]
			for _, j := range preds[i] {
				if !can[j] {
					can[j] = true
					bq = append(bq, j)
				}
			}
		}
		for i, m := range r.masks {
			if m&bit != 0 && !can[i] {
				flow.Leaks = append(flow.Leaks, LeakFlow{
					Policy: string(r.ct.IDs()[p]),
					Trace:  traceOf(int32(i), nil),
				})
				break
			}
		}
	}
	return flow
}

// ExploreFlow runs the flow analysis of one client under one plan on the
// exploration kernel: the static prechecks of plan validation followed by
// the exhaustive exploration, recorded by a FlowRecorder. Non-valid plans
// return just the verdict; budget exhaustion returns Verdict "unknown".
// Of opts, the flow uses only Cache and Budget: it always explores the
// unbounded network, the one its store key (PlanKey with no capacities)
// names.
func ExploreFlow(repo network.Repository, table *policy.Table, loc hexpr.Location,
	client hexpr.Expr, plan network.Plan, opts Options) (*PlanFlow, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	r, err := staticCheck(repo, client, plan, cache)
	if err != nil {
		return nil, err
	}
	var rec FlowRecorder
	if r == nil {
		rec.Reset(table)
		x := &explorer{repo: repo, comps: []ClientSpec{{Loc: loc, Client: client, Plan: plan}},
			cache: cache, budget: opts.Budget, flow: &rec}
		r, err = x.run(table, nil)
		if err == errStateLimit {
			r, err = &Report{Verdict: Unknown, States: MaxStates,
				Reason: fmt.Sprintf("exploration exceeds %d states", MaxStates)}, nil
		}
		if err != nil {
			return nil, err
		}
	}
	return rec.Flow(r, opts.Budget), nil
}
