package verify

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

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

// activeInfo renders the monitor's active set as a dedup key plus the
// sorted policy identifiers. Tables within the 64-policy bitmask use the
// mask directly; wider tables fall back to the activation map.
func activeInfo(mon *history.Monitor, ct *policy.CompiledTable, wide bool) (string, []string) {
	if !wide {
		mask := mon.ActiveMask()
		if mask == 0 {
			return "0", nil
		}
		var ids []string
		for i := 0; i < ct.Len(); i++ {
			if mask&(1<<uint(i)) != 0 {
				ids = append(ids, string(ct.IDs()[i]))
			}
		}
		return strconv.FormatUint(mask, 16), ids
	}
	m := mon.Active()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return strings.Join(ids, "\x01"), ids
}

// ExploreFlow runs the flow analysis of one client under one plan: the
// static prechecks of plan validation followed by the exhaustive
// exploration, recording every distinct (event, active set) and
// (framing, ambient set) occurrence with a BFS-minimal witness trace, and
// the definite scope leaks. Non-valid plans return early with just the
// verdict; budget exhaustion returns Verdict "unknown". Of opts, the
// flow uses only Cache and Budget: it always explores the unbounded
// network, the one its store key (PlanKey with no capacities) names.
func ExploreFlow(repo network.Repository, table *policy.Table, loc hexpr.Location,
	client hexpr.Expr, plan network.Plan, opts Options) (*PlanFlow, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	if r, err := StaticCheck(repo, client, plan, cache); err != nil {
		return nil, err
	} else if r != nil {
		return &PlanFlow{Verdict: r.Verdict.String(), Reason: r.Witness}, nil
	}

	ct := table.Compiled()
	wide := ct.Len() > 64

	// occurrence is the first sighting of an (event or framing, active
	// set) pair: the state the move leaves and the move's label.
	type occurrence struct {
		name  string
		ids   []string
		at    *traceNode
		label string
	}
	evs := map[string]*occurrence{}
	ops := map[string]*occurrence{}
	// Per state, in discovery order: its trace and its active-framing
	// bitmask; and every move as a (from, to) pair of state indices.
	var nodes []*traceNode
	var masks []uint64
	var edges [][2]int32

	x := &explorer{repo: repo, comps: []ClientSpec{{Loc: loc, Client: client, Plan: plan}},
		cache: cache, budget: opts.Budget}
	x.item = func(from *traceNode, label hexpr.Label, mon *history.Monitor, it history.Item) {
		var occs map[string]*occurrence
		var name string
		switch {
		case it.Kind == history.ItemEvent:
			occs, name = evs, it.Event.String()
		case it.Kind == history.ItemFrameOpen && it.Policy != hexpr.NoPolicy:
			occs, name = ops, string(it.Policy)
		default:
			return
		}
		key, ids := activeInfo(mon, ct, wide)
		k := name + "\x00" + key
		if _, ok := occs[k]; !ok {
			occs[k] = &occurrence{name: name, ids: ids, at: from, label: label.String()}
		}
	}
	x.state = func(at *traceNode, comps []component) {
		nodes = append(nodes, at)
		masks = append(masks, comps[0].mon.ActiveMask())
	}
	x.edge = func(from, to int32) { edges = append(edges, [2]int32{from, to}) }

	r, err := x.run(table, nil)
	if err == errStateLimit {
		return &PlanFlow{Verdict: Unknown.String(), States: MaxStates,
			Reason: fmt.Sprintf("exploration exceeds %d states", MaxStates)}, nil
	}
	if err != nil {
		return nil, err
	}
	flow := &PlanFlow{Verdict: r.Verdict.String(), States: r.States}
	switch r.Verdict {
	case SecurityViolation:
		flow.Reason = fmt.Sprintf("policy %s violated", r.Policy)
		return flow, nil
	case CommunicationDeadlock:
		flow.Reason = r.StuckTree
		return flow, nil
	case Unknown:
		flow.Reason = r.Reason
		return flow, nil
	}

	// Witness traces share their prefixes: each state's discovering label
	// is rendered once.
	rendered := make([]string, len(nodes))
	traceOf := func(n *traceNode, extra string) []string {
		depth := 0
		for p := n; p.prev != nil; p = p.prev {
			depth++
		}
		out := make([]string, depth, depth+1)
		if extra != "" {
			out = append(out, extra)
		}
		for p := n; p.prev != nil; p = p.prev {
			depth--
			if rendered[p.idx] == "" {
				rendered[p.idx] = p.entry.Label.String()
			}
			out[depth] = rendered[p.idx]
		}
		return out
	}

	// Materialise occurrences in a deterministic order: events by
	// (event, active set), openings by (policy, ambient set).
	for _, o := range evs {
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
	for _, o := range ops {
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

	if wide {
		flow.LeaksSkipped = true
		return flow, nil
	}
	// Leak analysis: for each policy ever active, a reachable state with
	// the policy active that cannot reach any state with it inactive is a
	// definite scope leak (the η♭ flattening never balances the opening).
	n := len(masks)
	preds := make([][]int32, n)
	for _, e := range edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	var anyMask uint64
	for _, m := range masks {
		anyMask |= m
	}
	for p := 0; p < ct.Len(); p++ {
		bit := uint64(1) << uint(p)
		if anyMask&bit == 0 {
			continue
		}
		can := make([]bool, n)
		var bq []int32
		for i, m := range masks {
			if m&bit == 0 {
				can[i] = true
				bq = append(bq, int32(i))
			}
		}
		for len(bq) > 0 {
			if opts.Budget.Check() != nil {
				flow.LeaksSkipped = true
				return flow, nil
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
		for i, m := range masks {
			if m&bit != 0 && !can[i] {
				flow.Leaks = append(flow.Leaks, LeakFlow{
					Policy: string(ct.IDs()[p]),
					Trace:  traceOf(nodes[i], ""),
				})
				break
			}
		}
	}
	return flow, nil
}
