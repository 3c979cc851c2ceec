package lint

import (
	"fmt"
	"sort"
	"strings"

	"susc/internal/autom"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/verify"
)

// This file is the whole-network security-flow audit (`susc audit`,
// SUSC017–021): it records the flow (verify.PlanFlow) of the valid plans
// of every client, annotating each reachable event occurrence with its
// active-framing set, then decides coverage questions — which events run
// unguarded, which framings the ambient set already implies, which
// policies are dead, which scopes leak — with the autom language ops. A
// family's flows are read off the graph of the plan sweep that found the
// valid plans (plans.AssessWithFlows); a declared plan is explored on the
// kernel (verify.ExploreFlow). Both go through the report tiers.

const (
	// maxAuditPlans bounds the plan families the audit enumerates; larger
	// families are skipped (and reported as such in the coverage output —
	// never silently).
	maxAuditPlans = 4096
	// maxAuditFlows bounds the valid plans flow-analyzed per client; the
	// rest of the family is counted but not explored, which silences the
	// universally quantified codes (SUSC017/018/020) for that client.
	maxAuditFlows = 256
)

// planAudit is one audited (plan, flow) pair of a client, with the
// flow's coverage rows (coverageRows), built once for the coverage
// analyzers and the coverage table.
type planAudit struct {
	plan   network.Plan
	flow   *verify.PlanFlow
	cached bool
	rows   []CoverageRow
}

// clientAudit aggregates the audited flows of one client.
type clientAudit struct {
	idx        int
	name       string
	plans      []planAudit // valid flows only
	totalValid int
	capped     bool
	skipped    string // non-empty reason when the client could not be audited
}

// auditState is the shared flow computation behind the audit analyzers,
// built lazily once per pass.
type auditState struct {
	clients []clientAudit
	wide    bool // >64 policies: beyond the dense masks, analyzers stay silent
	// complete: every client's whole valid-plan family was fully
	// flow-analyzed — no skips, caps or budget cutoffs. The universally
	// quantified codes require it.
	complete bool
}

// auditData computes (once) the per-client flow audit: the valid-plan
// family (or just the declared plan, under AuditDeclaredOnly) and one
// PlanFlow per audited plan. Verdicts and flows are read through the
// session's report tiers — memory, then store — under each plan's cone
// key: the family's sweep files its verdicts where `plans` does
// (store.KindPlanReport) and its flows under store.KindAudit, so a
// repeated audit costs its lookups. An isolated panic in the family's
// sweep is reported as SUSC016; the poisoned plan is Unknown, the rest
// stand.
func (p *Pass) auditData() *auditState {
	if p.audit != nil {
		return p.audit
	}
	st := &auditState{complete: true}
	p.audit = st
	ct := p.File.Table.Compiled()
	st.wide = ct.Len() > 64
	for i, c := range p.File.Clients {
		if p.Budget.Exhausted() != nil {
			st.complete = false
			return st
		}
		ca := clientAudit{idx: i, name: c.Name}
		// add records one audited plan's flow; false stops the client.
		add := func(plan network.Plan, flow *verify.PlanFlow, hit bool, err error) bool {
			if err != nil {
				ca.skipped = fmt.Sprintf("flow analysis failed: %v", err)
				st.complete = false
				return false
			}
			if !flow.Valid() {
				// Declared plans may be invalid (checkall's verification
				// loop reports that); unknown means a budget cutoff.
				if flow.Verdict == verify.Unknown.String() {
					st.complete = false
				}
				return true
			}
			// A tier hit is cached — read from the store, not explored by
			// this run — only when the session has a store: a memory hit
			// on a store-backed session implies the store holds the flow.
			cached := hit && p.Cache.Disk() != nil
			ca.plans = append(ca.plans, planAudit{plan: plan, flow: flow, cached: cached, rows: coverageRows(ct, flow)})
			return true
		}
		if p.AuditDeclaredOnly {
			if len(c.Plan) == 0 && len(hexpr.Requests(c.Expr)) > 0 {
				ca.skipped = "no declared plan"
				st.complete = false
				st.clients = append(st.clients, ca)
				continue
			}
			flow, hit, err := p.flowFor(c)
			add(c.Plan, flow, hit, err)
			ca.totalValid = len(ca.plans)
			st.clients = append(st.clients, ca)
			continue
		}
		fam, err := plans.AssessWithFlows(p.File.Repo, p.File.Table, c.Loc, c.Expr, plans.Options{
			PruneNonCompliant: true,
			MaxPlans:          maxAuditPlans,
			Cache:             p.Cache,
			Budget:            p.Budget,
		})
		if !p.reportSweepPanic(i, err) && err != nil {
			ca.skipped = fmt.Sprintf("plan family not enumerable: %v", err)
			st.complete = false
			st.clients = append(st.clients, ca)
			continue
		}
		var valid []int
		for k := 0; k < fam.Len(); k++ {
			switch fam.Report(k).Verdict {
			case verify.Valid:
				valid = append(valid, k)
			case verify.Unknown:
				st.complete = false
			}
		}
		ca.totalValid = len(valid)
		if len(valid) > maxAuditFlows {
			valid = valid[:maxAuditFlows]
			ca.capped = true
			st.complete = false
		}
		for _, k := range valid {
			flow, hit, err := fam.Flow(k)
			if !add(fam.Plan(k).Map(), flow, hit, err) {
				break
			}
		}
		st.clients = append(st.clients, ca)
	}
	if p.Budget.Exhausted() != nil {
		st.complete = false
	}
	return st
}

// flowFor explores client c's declared plan on the kernel
// (verify.ExploreFlow), read through the session's report tiers under the
// plan's cone key (verify.PlanKey) — the key a family sweep files the
// same plan's flow under. hit reports a read from either tier.
func (p *Pass) flowFor(c parser.ClientDecl) (flow *verify.PlanFlow, hit bool, err error) {
	sum := verify.PlanKey(p.File.Repo, p.File.Table, c.Loc, c.Expr, c.Plan, nil)
	return verify.ReadFlow(p.Cache, sum, func() (*verify.PlanFlow, error) {
		return verify.ExploreFlow(p.File.Repo, p.File.Table, c.Loc, c.Expr, c.Plan,
			verify.Options{Cache: p.Cache, Budget: p.Budget})
	})
}

// --- shared helpers --------------------------------------------------------

// eventName strips the argument list off a canonical event rendering
// ("sgn(s3)" → "sgn"), the name the watched-event index keys on.
func eventName(rendering string) string {
	if i := strings.IndexByte(rendering, '('); i >= 0 {
		return rendering[:i]
	}
	return rendering
}

// relevantPolicies filters an active set down to the policies watching
// the given event name — the policies actually guarding that occurrence.
func relevantPolicies(ct *policy.CompiledTable, name string, active []string) []string {
	mask := ct.WatchedMask(name)
	if mask == 0 {
		return nil
	}
	var out []string
	for _, id := range active {
		if i := ct.Index(hexpr.PolicyID(id)); i >= 0 && i < 64 && mask&(1<<uint(i)) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// auditLabelSpan anchors one trace label in one expression's side table:
// framing actions prefer the recorded framing scopes, session opens and
// closes resolve through the request's open span, events and channel
// actions through the events table.
func auditLabelSpan(ex *parser.ExprSpans, label string) parser.Span {
	if ex == nil || label == "tau" {
		return parser.Span{}
	}
	switch {
	case strings.HasPrefix(label, "[_"):
		if fs := ex.FramingSpan(strings.TrimPrefix(label, "[_")); fs.ID != "" {
			return fs.Open
		}
		return itemSpan(ex, label)
	case strings.HasPrefix(label, "_]"):
		if fs := ex.FramingSpan(strings.TrimPrefix(label, "_]")); fs.ID != "" {
			return fs.Close
		}
		return itemSpan(ex, label)
	case strings.HasPrefix(label, "open[") || strings.HasPrefix(label, "close["):
		inner := label[strings.IndexByte(label, '[')+1 : len(label)-1]
		req := inner
		if i := strings.IndexByte(inner, ','); i >= 0 {
			req = inner[:i]
		}
		return ex.Opens[req]
	case strings.HasSuffix(label, "!") || strings.HasSuffix(label, "?"):
		return ex.EventSpan(label[:len(label)-1])
	default:
		return ex.EventSpan(label)
	}
}

// auditStepSpan anchors a trace label, searching the client's expression
// first and the services' after — network traces interleave both sides.
func (p *Pass) auditStepSpan(clientIdx int, label string) parser.Span {
	if sp := auditLabelSpan(p.clientExprSpans(clientIdx), label); !sp.IsZero() {
		return sp
	}
	for _, loc := range p.File.ServiceOrder {
		if sp := auditLabelSpan(p.serviceExprSpans(loc), label); !sp.IsZero() {
			return sp
		}
	}
	return parser.Span{}
}

// framingSpan anchors a policy's framing: the recorded open token of the
// first framing of that policy anywhere in the file, falling back to the
// first with/enforce reference.
func (p *Pass) framingSpan(id string) parser.Span {
	tables := make([]*parser.ExprSpans, 0, len(p.File.Clients)+len(p.File.ServiceOrder))
	for i := range p.File.Clients {
		tables = append(tables, p.clientExprSpans(i))
	}
	for _, loc := range p.File.ServiceOrder {
		tables = append(tables, p.serviceExprSpans(loc))
	}
	for _, ex := range tables {
		if ex == nil {
			continue
		}
		if fs := ex.FramingSpan(id); fs.ID != "" {
			return fs.Open
		}
	}
	for _, ex := range tables {
		if sp := policyRefSpan(ex, id); !sp.IsZero() {
			return sp
		}
	}
	return parser.Span{}
}

// auditWitness builds a network-trace witness from a flow trace.
func (p *Pass) auditWitness(kind string, clientIdx int, plan network.Plan, trace []string, note string) *Witness {
	w := &Witness{Kind: kind, Note: note}
	if len(plan) > 0 {
		w.Plan = map[string]string{}
		for r, l := range plan {
			w.Plan[string(r)] = string(l)
		}
	}
	for _, label := range trace {
		w.Steps = append(w.Steps, WitnessStep{
			Label: label,
			Span:  p.auditStepSpan(clientIdx, label),
		})
	}
	return w
}

// eventSpanAnywhere anchors an event rendering: the client's occurrence
// if it has one, else the first service occurrence.
func (p *Pass) eventSpanAnywhere(clientIdx int, key string) parser.Span {
	if sp := p.clientExprSpans(clientIdx).EventSpan(key); !sp.IsZero() {
		return sp
	}
	for _, loc := range p.File.ServiceOrder {
		if sp := p.serviceExprSpans(loc).EventSpan(key); !sp.IsZero() {
			return sp
		}
	}
	return parser.Span{}
}

// --- SUSC017 + SUSC019: event coverage -------------------------------------

// eventCoverage classifies, for one client, a watched event by the
// audited plans it occurs in: plans where every occurrence is guarded by
// some watching policy, and plans with an unguarded occurrence (the
// first of them holds the witness occurrence, found by witness).
type eventCoverage struct {
	event     string
	guarded   []int // indices into ca.plans
	unguarded []int
	guards    []string // watching policies seen guarding it (union)
}

// clientEventCoverage folds the coverage rows of the client's audited
// plans into one eventCoverage per watched event, in event order.
func clientEventCoverage(ca *clientAudit) []*eventCoverage {
	byEvent := map[string]*eventCoverage{}
	var order []string
	for pi, pa := range ca.plans {
		for _, row := range pa.rows {
			if row.Unwatched {
				continue
			}
			ec := byEvent[row.Event]
			if ec == nil {
				ec = &eventCoverage{event: row.Event}
				byEvent[row.Event] = ec
				order = append(order, row.Event)
			}
			ec.guards = mergeSorted(mergeSorted(ec.guards, row.Guards), row.Sometimes)
			if row.Unguarded {
				ec.unguarded = append(ec.unguarded, pi)
			} else {
				ec.guarded = append(ec.guarded, pi)
			}
		}
	}
	sort.Strings(order)
	out := make([]*eventCoverage, len(order))
	for i, ev := range order {
		out[i] = byEvent[ev]
	}
	return out
}

// witness returns the first occurrence of the event that no watching
// policy guards in the first plan with one — the BFS-minimal occurrence.
func (ec *eventCoverage) witness(ct *policy.CompiledTable, ca *clientAudit) verify.EventFlow {
	for _, ef := range ca.plans[ec.unguarded[0]].flow.Events {
		if ef.Event == ec.event && len(relevantPolicies(ct, eventName(ef.Event), ef.Active)) == 0 {
			return ef
		}
	}
	return verify.EventFlow{}
}

func mergeSorted(acc, add []string) []string {
	for _, s := range add {
		i := sort.SearchStrings(acc, s)
		if i < len(acc) && acc[i] == s {
			continue
		}
		acc = append(acc, "")
		copy(acc[i+1:], acc[i:])
		acc[i] = s
	}
	return acc
}

var unguardedAnalyzer = &Analyzer{
	Name:  "unguarded",
	Doc:   "report critical events — events some declared policy watches — reachable with no watching policy active, under every audited plan in which they occur",
	Codes: []string{CodeUnguardedEvent},
	Run: func(pass *Pass) {
		st := pass.auditData()
		if st.wide {
			return
		}
		ct := pass.File.Table.Compiled()
		for ci := range st.clients {
			ca := &st.clients[ci]
			for _, ec := range clientEventCoverage(ca) {
				if len(ec.unguarded) == 0 || len(ec.guarded) > 0 {
					continue // fully guarded, or SUSC019's plan-dependent case
				}
				pa := ca.plans[ec.unguarded[0]]
				note := fmt.Sprintf("the occurrence fires with no watching policy active (%d plan(s) audited)",
					len(ca.plans))
				pass.Report(Diagnostic{
					Code: CodeUnguardedEvent, Severity: Warning,
					Span: pass.eventSpanAnywhere(ca.idx, ec.event),
					Message: fmt.Sprintf("critical event %s of client %s is reachable unguarded: no policy watching it is active at the occurrence, under every audited plan it occurs in",
						ec.event, ca.name),
					Witness: pass.auditWitness(WitnessUncovered, ca.idx, pa.plan, ec.witness(ct, ca).Trace, note),
				})
			}
		}
	},
}

var planCoverageAnalyzer = &Analyzer{
	Name:  "plancoverage",
	Doc:   "report events guarded under some valid plans but reachable unguarded under others — coverage that depends on the plan chosen",
	Codes: []string{CodePlanDependentCoverage},
	Run: func(pass *Pass) {
		st := pass.auditData()
		if st.wide {
			return
		}
		ct := pass.File.Table.Compiled()
		for ci := range st.clients {
			ca := &st.clients[ci]
			for _, ec := range clientEventCoverage(ca) {
				if len(ec.unguarded) == 0 || len(ec.guarded) == 0 {
					continue // uniform coverage: SUSC017's turf when fully unguarded
				}
				good := ca.plans[ec.guarded[0]]
				bad := ca.plans[ec.unguarded[0]]
				note := fmt.Sprintf("under plan %s the occurrence fires with no watching policy active; under plan %s every occurrence is guarded (by %s)",
					bad.plan, good.plan, strings.Join(ec.guards, ", "))
				d := Diagnostic{
					Code: CodePlanDependentCoverage, Severity: Warning,
					Span: pass.eventSpanAnywhere(ca.idx, ec.event),
					Message: fmt.Sprintf("coverage of event %s in client %s depends on the plan: guarded under %d audited plan(s) (e.g. %s) but reachable unguarded under %d (e.g. %s)",
						ec.event, ca.name, len(ec.guarded), good.plan, len(ec.unguarded), bad.plan),
					Witness: pass.auditWitness(WitnessPlanCoverage, ca.idx, bad.plan, ec.witness(ct, ca).Trace, note),
				}
				if sp := pass.planTargetRelated(ca.idx); !sp.IsZero() {
					d.Related = []Related{{Span: sp, Message: "client " + ca.name + " picks the plan here"}}
				}
				pass.Report(d)
			}
		}
	},
}

// planTargetRelated anchors the client's plan clause (first target), for
// the SUSC019 related position. Zero when the client declares no plan.
func (p *Pass) planTargetRelated(clientIdx int) parser.Span {
	if clientIdx < len(p.File.Clients) {
		for _, r := range sortedRequests(p.File.Clients[clientIdx].Plan) {
			if sp := p.planTargetSpan(clientIdx, r); !sp.IsZero() {
				return sp
			}
		}
	}
	return parser.Span{}
}

// --- SUSC018: network-redundant framings -----------------------------------

var redundantFramingAnalyzer = &Analyzer{
	Name:  "netredundant",
	Doc:   "report framings whose policy is implied, at every reachable opening across every valid plan, by the ambient active set (language inclusion over the file's event alphabet): the whole-network generalisation of the pairwise SUSC014 check",
	Codes: []string{CodeRedundantFraming},
	Run: func(pass *Pass) {
		st := pass.auditData()
		if st.wide || !st.complete {
			return // implication over a partial flow set would be unsound
		}
		// The implication alphabet is the whole file's event set: events of
		// every declaration, so policies watching events of other services
		// keep their language.
		var events []hexpr.Event
		for _, c := range pass.File.Clients {
			events = append(events, hexpr.Events(c.Expr)...)
		}
		for _, loc := range pass.File.ServiceOrder {
			events = append(events, hexpr.Events(pass.File.Repo[loc])...)
		}
		events = dedupEvents(events)
		if len(events) == 0 {
			return
		}
		var alphabet []string
		alphaSig := ""
		for _, ev := range events {
			alphabet = append(alphabet, ev.String())
			alphaSig += "\x01" + ev.String()
		}
		dfas := map[string]*autom.Compiled{}
		automatonFor := func(id string) *autom.Compiled {
			if d, ok := dfas[id]; ok {
				return d
			}
			in, err := pass.File.Table.Get(hexpr.PolicyID(id))
			if err != nil {
				dfas[id] = nil
				return nil
			}
			d := pass.Cache.CompiledDFA("susc018:"+id+alphaSig, func() *autom.Compiled {
				return instanceNFA(in, events).Determinize(alphabet)
			})
			dfas[id] = d
			return d
		}
		// Collect every reachable opening of every policy, across clients.
		type openRec struct {
			client int // index into st.clients
			plan   network.Plan
			flow   verify.OpenFlow
		}
		opensBy := map[string][]openRec{}
		var order []string
		for ci := range st.clients {
			ca := &st.clients[ci]
			for _, pa := range ca.plans {
				for _, of := range pa.flow.Opens {
					if _, ok := opensBy[of.Policy]; !ok {
						order = append(order, of.Policy)
					}
					opensBy[of.Policy] = append(opensBy[of.Policy], openRec{client: ci, plan: pa.plan, flow: of})
				}
			}
		}
		sort.Strings(order)
		for _, id := range order {
			inner := automatonFor(id)
			if inner == nil || inner.IsEmpty() {
				continue // unknown policy, or vacuous on this alphabet (SUSC003's turf)
			}
			implied := true
			ambient := map[string]bool{}
			for _, rec := range opensBy[id] {
				rest := inner
				covered := false
				for _, a := range rec.flow.Ambient {
					if a == id {
						covered = true // the policy is already active: re-opening adds nothing
						break
					}
					if d := automatonFor(a); d != nil {
						rest = rest.Difference(d)
					}
				}
				if !covered && !rest.IsEmpty() {
					implied = false
					break
				}
				for _, a := range rec.flow.Ambient {
					ambient[a] = true
				}
			}
			if !implied || len(opensBy[id]) == 0 {
				continue
			}
			var ambs []string
			for a := range ambient {
				ambs = append(ambs, a)
			}
			sort.Strings(ambs)
			rec := opensBy[id][0]
			ca := &st.clients[rec.client]
			note := fmt.Sprintf("at this opening the ambient active set {%s} already forbids every trace %s forbids",
				strings.Join(rec.flow.Ambient, ", "), id)
			pass.Report(Diagnostic{
				Code: CodeRedundantFraming, Severity: Warning,
				Span: pass.framingSpan(id),
				Message: fmt.Sprintf("framing of %s is redundant on this network: at every reachable opening (all valid plans audited) the ambient active policies {%s} already forbid every trace it forbids",
					id, strings.Join(ambs, ", ")),
				Witness: pass.auditWitness(WitnessRedundantFraming, ca.idx, rec.plan, rec.flow.Trace, note),
			})
		}
	},
}

// --- SUSC020: dead policies ------------------------------------------------

var deadPolicyAnalyzer = &Analyzer{
	Name:  "deadpolicy",
	Doc:   "report policies referenced by some framing yet never active on any reachable path of any valid plan of any client",
	Codes: []string{CodeDeadPolicy},
	Run: func(pass *Pass) {
		st := pass.auditData()
		if st.wide || !st.complete {
			return // an unexplored plan could still activate the policy
		}
		activated := map[string]bool{}
		flows, clients := 0, 0
		for ci := range st.clients {
			ca := &st.clients[ci]
			if len(ca.plans) > 0 {
				clients++
			}
			for _, pa := range ca.plans {
				flows += 1
				for _, of := range pa.flow.Opens {
					activated[of.Policy] = true
				}
			}
		}
		if flows == 0 {
			return // no valid plan anywhere: nothing sound to say
		}
		referenced := map[string]bool{}
		var order []string
		addRefs := func(e hexpr.Expr) {
			for _, id := range hexpr.Policies(e) {
				if !referenced[string(id)] {
					referenced[string(id)] = true
					order = append(order, string(id))
				}
			}
		}
		for _, c := range pass.File.Clients {
			addRefs(c.Expr)
		}
		for _, loc := range pass.File.ServiceOrder {
			addRefs(pass.File.Repo[loc])
		}
		sort.Strings(order)
		for _, id := range order {
			if activated[id] {
				continue
			}
			w := &Witness{Kind: WitnessDeadPolicy,
				Note: fmt.Sprintf("audited %d valid plan flow(s) across %d client(s); no reachable computation activates %s", flows, clients, id)}
			pass.Report(Diagnostic{
				Code: CodeDeadPolicy, Severity: Info,
				Span: pass.framingSpan(id),
				Message: fmt.Sprintf("policy %s is dead on this network: referenced by a framing, but never active on any reachable path of any valid plan",
					id),
				Witness: w,
			})
		}
	},
}

// --- SUSC021: framing-scope leaks ------------------------------------------

var scopeLeakAnalyzer = &Analyzer{
	Name:  "scopeleak",
	Doc:   "report framing scopes opened but never closed on some path: a reachable configuration with the policy active from which no configuration with it inactive is reachable",
	Codes: []string{CodeFramingLeak},
	Run: func(pass *Pass) {
		st := pass.auditData()
		if st.wide {
			return
		}
		for ci := range st.clients {
			ca := &st.clients[ci]
			reported := map[string]bool{}
			for _, pa := range ca.plans {
				for _, lf := range pa.flow.Leaks {
					if reported[lf.Policy] {
						continue
					}
					reported[lf.Policy] = true
					note := fmt.Sprintf("from here no reachable configuration closes the scope of %s: its η♭ flattening never balances the opening", lf.Policy)
					pass.Report(Diagnostic{
						Code: CodeFramingLeak, Severity: Warning,
						Span: pass.framingSpan(lf.Policy),
						Message: fmt.Sprintf("framing scope of %s in client %s can never close on some path: the scope leaks under plan %s",
							lf.Policy, ca.name, pa.plan),
						Witness: pass.auditWitness(WitnessScopeLeak, ca.idx, pa.plan, lf.Trace, note),
					})
				}
			}
		}
	},
}

// AuditAnalyzers returns the flow-audit suite (SUSC017–021), in running
// order. Like the semantic suite it is not part of the default suite:
// `susc audit` (and `susc checkall`) run it explicitly.
func AuditAnalyzers() []*Analyzer {
	return []*Analyzer{
		unguardedAnalyzer,
		planCoverageAnalyzer,
		redundantFramingAnalyzer,
		deadPolicyAnalyzer,
		scopeLeakAnalyzer,
	}
}

// --- coverage table --------------------------------------------------------

// CoverageRow is one line of the per-plan coverage table: an event with
// the policies guarding it. Occurrences counts the distinct
// (event, active set) observations of the flow; Guards are the watching
// policies active at every occurrence, Sometimes the ones active at some
// occurrences only; Unguarded marks a critical event with an occurrence
// no watching policy guards.
type CoverageRow struct {
	Event       string   `json:"event"`
	Occurrences int      `json:"occurrences"`
	Guards      []string `json:"guards,omitempty"`
	Sometimes   []string `json:"sometimes,omitempty"`
	Unguarded   bool     `json:"unguarded,omitempty"`
	Unwatched   bool     `json:"unwatched,omitempty"`
}

// PlanCoverage is the coverage table of one audited valid plan. Cached
// means the plan's flow was read from the store, not explored by this
// run: a hit in either report tier of a store-backed session (a memory
// hit there implies the store holds the flow). A memory-only session
// never marks a plan cached.
type PlanCoverage struct {
	Plan   map[string]string `json:"plan"`
	States int               `json:"states"`
	Cached bool              `json:"cached,omitempty"`
	Rows   []CoverageRow     `json:"rows,omitempty"`
}

// ClientCoverage aggregates one client's audited plans.
type ClientCoverage struct {
	Client     string         `json:"client"`
	ValidPlans int            `json:"valid_plans"`
	Audited    int            `json:"audited"`
	Capped     bool           `json:"capped,omitempty"`
	Skipped    string         `json:"skipped,omitempty"`
	Plans      []PlanCoverage `json:"plans,omitempty"`
}

// AuditResult is the outcome of one flow audit: the findings plus the
// per-client, per-plan coverage tables.
type AuditResult struct {
	Diagnostics []Diagnostic
	Coverage    []ClientCoverage
	// Complete: every client's whole valid-plan family was fully
	// flow-analyzed; when false, the universally quantified codes
	// (SUSC017/018/020) stayed silent rather than overclaim.
	Complete bool
}

// coverageRows builds the event × guarding-policies table of one flow.
func coverageRows(ct *policy.CompiledTable, flow *verify.PlanFlow) []CoverageRow {
	type agg struct {
		occ     int
		always  []string
		union   []string
		first   bool
		unguard bool
	}
	byEvent := map[string]*agg{}
	var order []string
	for _, ef := range flow.Events {
		a := byEvent[ef.Event]
		if a == nil {
			a = &agg{first: true}
			byEvent[ef.Event] = a
			order = append(order, ef.Event)
		}
		a.occ++
		rel := relevantPolicies(ct, eventName(ef.Event), ef.Active)
		if len(rel) == 0 {
			a.unguard = true
		}
		a.union = mergeSorted(a.union, rel)
		if a.first {
			a.always = append([]string(nil), rel...)
			a.first = false
		} else {
			a.always = intersectSorted(a.always, rel)
		}
	}
	sort.Strings(order)
	rows := make([]CoverageRow, 0, len(order))
	for _, ev := range order {
		a := byEvent[ev]
		watched := ct.WatchedMask(eventName(ev)) != 0
		var sometimes []string
		for _, id := range a.union {
			if i := sort.SearchStrings(a.always, id); i >= len(a.always) || a.always[i] != id {
				sometimes = append(sometimes, id)
			}
		}
		rows = append(rows, CoverageRow{
			Event:       ev,
			Occurrences: a.occ,
			Guards:      a.always,
			Sometimes:   sometimes,
			Unguarded:   watched && a.unguard,
			Unwatched:   !watched,
		})
	}
	return rows
}

func intersectSorted(a, b []string) []string {
	var out []string
	for _, s := range a {
		if i := sort.SearchStrings(b, s); i < len(b) && b[i] == s {
			out = append(out, s)
		}
	}
	return out
}

// coverageOf materialises the audit state into the exported coverage model.
func coverageOf(st *auditState) []ClientCoverage {
	out := make([]ClientCoverage, 0, len(st.clients))
	for ci := range st.clients {
		ca := &st.clients[ci]
		cc := ClientCoverage{
			Client:     ca.name,
			ValidPlans: ca.totalValid,
			Audited:    len(ca.plans),
			Capped:     ca.capped,
			Skipped:    ca.skipped,
		}
		for _, pa := range ca.plans {
			pc := PlanCoverage{
				Plan:   map[string]string{},
				States: pa.flow.States,
				Cached: pa.cached,
				Rows:   pa.rows,
			}
			for r, l := range pa.plan {
				pc.Plan[string(r)] = string(l)
			}
			cc.Plans = append(cc.Plans, pc)
		}
		out = append(out, cc)
	}
	return out
}

// Audit runs the flow-audit suite over an already-parsed file and returns
// the findings together with the coverage tables. Analyzer selection,
// budget metering, caching and severity filtering follow Run.
func Audit(f *parser.File, issues []parser.Issue, opts Options) *AuditResult {
	pass := newPass(f, issues, opts)
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = AuditAnalyzers()
	}
	diags := runSuite(pass, analyzers, opts)
	res := &AuditResult{Diagnostics: diags}
	if st := pass.audit; st != nil {
		res.Coverage = coverageOf(st)
		res.Complete = st.complete
	}
	return res
}

// AuditSource audits a source file from its text; syntax errors come back
// as a single SUSC000 diagnostic, like Source.
func AuditSource(src string, opts Options) *AuditResult {
	f, issues, err := parser.ParseFileLenient(src)
	if err != nil {
		return &AuditResult{Diagnostics: sourceErrorDiags(err, opts)}
	}
	return Audit(f, issues, opts)
}

// planLabel renders a plan for the text table ("{}" for the empty plan).
func planLabel(plan map[string]string) string {
	if len(plan) == 0 {
		return "{}"
	}
	reqs := make([]string, 0, len(plan))
	for r := range plan {
		reqs = append(reqs, r)
	}
	sort.Strings(reqs)
	parts := make([]string, len(reqs))
	for i, r := range reqs {
		parts[i] = r + ">" + plan[r]
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// RenderCoverage renders the per-client, per-plan coverage tables as
// plain text, the default `susc audit` output under the findings.
func (r *AuditResult) RenderCoverage() string {
	var b strings.Builder
	for _, cc := range r.Coverage {
		fmt.Fprintf(&b, "client %s: %d valid plan(s), %d audited", cc.Client, cc.ValidPlans, cc.Audited)
		if cc.Capped {
			b.WriteString(" (capped)")
		}
		b.WriteString("\n")
		if cc.Skipped != "" {
			fmt.Fprintf(&b, "  skipped: %s\n", cc.Skipped)
			continue
		}
		for _, pc := range cc.Plans {
			fmt.Fprintf(&b, "  plan %s (%d states)\n", planLabel(pc.Plan), pc.States)
			if len(pc.Rows) == 0 {
				b.WriteString("    no events reachable\n")
				continue
			}
			width := len("event")
			for _, row := range pc.Rows {
				if len(row.Event) > width {
					width = len(row.Event)
				}
			}
			fmt.Fprintf(&b, "    %-*s  occ  guarded by\n", width, "event")
			for _, row := range pc.Rows {
				fmt.Fprintf(&b, "    %-*s  %3d  %s\n", width, row.Event, row.Occurrences, row.guardCell())
			}
		}
	}
	return b.String()
}

// guardCell renders the guarding-policies column of one row.
func (row CoverageRow) guardCell() string {
	if row.Unwatched {
		return "(unwatched)"
	}
	var parts []string
	if len(row.Guards) > 0 {
		parts = append(parts, strings.Join(row.Guards, ", "))
	}
	if len(row.Sometimes) > 0 {
		parts = append(parts, fmt.Sprintf("sometimes: %s", strings.Join(row.Sometimes, ", ")))
	}
	if row.Unguarded {
		parts = append(parts, "UNGUARDED")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "; ")
}
