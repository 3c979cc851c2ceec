package verify

import (
	"slices"
	"sort"

	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/policy"
)

// This file holds the content keys of the report tiers: the digest of a
// verdict's full dependency cone. A plan key is a stream of framed parts
// — a head naming the client, one part per planned request (its
// binding), the activated policies and the capacities — so a sweep over
// many plans of one client renders each part once (PlanKeyer) and every
// plan's key is the same byte stream PlanKey writes.

// PlanKey is the content hash of the dependency cone of one (client, plan)
// verdict: the client's canonical form, every planned request with the
// service the plan binds it to, every policy instance any of those
// expressions activate, and the capacity bounds of the cone's locations.
// A declaration edit outside this cone leaves the key unchanged, which is
// exactly what makes re-verification incremental. It writes straight into
// the digest; PlanKeyer.Sum is the same key from parts rendered once.
func PlanKey(repo network.Repository, table *policy.Table,
	loc hexpr.Location, client hexpr.Expr, plan network.Plan,
	caps map[hexpr.Location]int) (hash.Sum, error) {

	reqs, err := PlannedRequests(repo, client, plan)
	if err != nil {
		return hash.Sum{}, err
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Req < reqs[j].Req })
	h := hash.New()
	writePlanHead(h, loc, client)
	h.Int(len(reqs))
	coneLocs := map[hexpr.Location]bool{loc: true}
	policyIDs := map[hexpr.PolicyID]bool{}
	for _, id := range hexpr.Policies(client) {
		policyIDs[id] = true
	}
	for _, pr := range reqs {
		writeBinding(h, pr)
		if pr.Loc != "" {
			coneLocs[pr.Loc] = true
		}
		for _, id := range bindingPolicies(pr) {
			policyIDs[id] = true
		}
	}
	writePolicies(h, table, policyIDs)
	writeCaps(h, caps, coneLocs)
	return h.Sum(), nil
}

// NetworkKey is the content hash of a whole-network verdict under bounded
// availability: the ordered client vector (each with its planned cone),
// the activated policies, and the full capacity map — components share
// limited replicas, so every capacity is in every component's cone.
func NetworkKey(repo network.Repository, table *policy.Table,
	specs []ClientSpec, caps map[hexpr.Location]int) (hash.Sum, error) {

	h := hash.New()
	h.Str("network-report")
	h.Int(len(specs))
	policyIDs := map[hexpr.PolicyID]bool{}
	for _, sp := range specs {
		h.Str(string(sp.Loc))
		h.Str(sp.Client.Key())
		for _, id := range hexpr.Policies(sp.Client) {
			policyIDs[id] = true
		}
		reqs, err := PlannedRequests(repo, sp.Client, sp.Plan)
		if err != nil {
			return hash.Sum{}, err
		}
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].Req < reqs[j].Req })
		h.Int(len(reqs))
		for _, pr := range reqs {
			writeBinding(h, pr)
			for _, id := range bindingPolicies(pr) {
				policyIDs[id] = true
			}
		}
	}
	writePolicies(h, table, policyIDs)
	writeCaps(h, caps, nil)
	return h.Sum(), nil
}

// writePlanHead writes the part every plan key of one client starts with.
func writePlanHead(h *hash.Hasher, loc hexpr.Location, client hexpr.Expr) {
	h.Str("plan-report")
	h.Str(string(loc))
	h.Str(client.Key())
}

// writeBinding writes the part one planned request adds to a key: the
// request, its framing policy, its body, the location the plan binds it
// to, and — when that location is in the repository — the service there.
func writeBinding(h *hash.Hasher, pr PlannedRequest) {
	h.Str(string(pr.Req))
	h.Str(string(pr.Policy))
	h.Str(pr.Body.Key())
	h.Str(string(pr.Loc))
	if pr.Bound {
		h.Int(1)
		h.Str(pr.Service.Key())
	} else {
		h.Int(0)
	}
}

// bindingPolicies lists the policies a planned request brings into its
// cone: those of its body and, when bound, of its service.
func bindingPolicies(pr PlannedRequest) []hexpr.PolicyID {
	ids := hexpr.Policies(pr.Body)
	if pr.Bound {
		for _, id := range hexpr.Policies(pr.Service) {
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// writePolicies digests the referenced policy instances in sorted ID
// order: the full automaton structure, so editing a policy invalidates
// exactly the verdicts whose cone activates it.
func writePolicies(h *hash.Hasher, table *policy.Table, ids map[hexpr.PolicyID]bool) {
	sorted := make([]hexpr.PolicyID, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	h.Int(len(sorted))
	for _, id := range sorted {
		writePolicy(h, table, id)
	}
}

// writePolicy digests one policy instance. An ID missing from the table
// still contributes its name (the dangling reference is part of the
// content).
func writePolicy(h *hash.Hasher, table *policy.Table, id hexpr.PolicyID) {
	if table != nil {
		if in, err := table.Get(id); err == nil {
			hash.WritePolicy(h, in)
			return
		}
	}
	h.Str(string(id))
}

// writeCaps digests the capacity bounds, restricted to cone when non-nil
// — capacities of locations the verdict's exploration can never open are
// not part of its cone.
func writeCaps(h *hash.Hasher, caps map[hexpr.Location]int, cone map[hexpr.Location]bool) {
	var locs []hexpr.Location
	for l := range caps {
		if cone == nil || cone[l] {
			locs = append(locs, l)
		}
	}
	slices.Sort(locs)
	h.Int(len(locs))
	for _, l := range locs {
		h.Str(string(l))
		h.Int(caps[l])
	}
}

// PlanKeyer keys many plans of one client, as a plan sweep does: the
// head, each binding's part and each policy's serialisation are rendered
// once, and a plan's key replays them. Sum(bindings) equals PlanKey of
// the plan with no capacities. A PlanKeyer is not safe for concurrent
// use.
type PlanKeyer struct {
	table    *policy.Table
	h        *hash.Hasher
	head     []byte
	client   []hexpr.PolicyID
	policies map[hexpr.PolicyID][]byte
	union    []hexpr.PolicyID // Sum's scratch
}

// Binding is one planned request's part of a plan key, rendered once by
// PlanKeyer.Binding.
type Binding struct {
	part     []byte
	policies []hexpr.PolicyID
}

// NewPlanKeyer returns a keyer for the plans of client at loc.
func NewPlanKeyer(table *policy.Table, loc hexpr.Location, client hexpr.Expr) *PlanKeyer {
	return &PlanKeyer{
		table:    table,
		h:        hash.New(),
		head:     hash.Frame(func(h *hash.Hasher) { writePlanHead(h, loc, client) }),
		client:   hexpr.Policies(client),
		policies: map[hexpr.PolicyID][]byte{},
	}
}

// Binding renders the part pr adds to the key of every plan it is
// planned in — pr as verify.PlannedRequests reports it.
func (k *PlanKeyer) Binding(pr PlannedRequest) *Binding {
	return &Binding{
		part:     hash.Frame(func(h *hash.Hasher) { writeBinding(h, pr) }),
		policies: bindingPolicies(pr),
	}
}

// Sum is the key of the plan whose planned requests are bs, given in
// sorted request order.
func (k *PlanKeyer) Sum(bs []*Binding) hash.Sum {
	h := k.h
	h.Reset()
	h.Raw(k.head)
	h.Int(len(bs))
	union := append(k.union[:0], k.client...)
	for _, b := range bs {
		h.Raw(b.part)
		for _, id := range b.policies {
			if !slices.Contains(union, id) {
				union = append(union, id)
			}
		}
	}
	k.union = union
	h.Int(len(union))
	if len(union) > 1 {
		slices.Sort(union)
	}
	for _, id := range union {
		p, ok := k.policies[id]
		if !ok {
			p = hash.Frame(func(h *hash.Hasher) { writePolicy(h, k.table, id) })
			k.policies[id] = p
		}
		h.Raw(p)
	}
	h.Int(0) // a sweep is capacity-free: no capacity in the cone
	return h.Sum()
}
