package lint

import (
	"fmt"

	"susc/internal/autom"
	"susc/internal/hexpr"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/valid"
	"susc/internal/verify"
)

// maxSemanticPlans bounds the plan spaces the unrealizable-request
// analyzer explores; larger clients are skipped rather than reported
// incompletely.
const maxSemanticPlans = 512

// --- SUSC011: violable framings ------------------------------------------

var violableAnalyzer = &Analyzer{
	Name:  "violable",
	Doc:   "model-check every declaration against the policies it frames (Theorem 1) and report each framing some history of the declaration can violate, with a shortest violating history as witness",
	Codes: []string{CodeViolableFraming},
	Run: func(pass *Pass) {
		for _, d := range pass.decls() {
			if pass.Budget.Exhausted() != nil {
				return // the suite loop reports the cutoff as SUSC016
			}
			if len(hexpr.Policies(d.expr)) == 0 {
				continue // no framing to violate: the model check would find nothing
			}
			ces, err := valid.FindCounterexamplesBudget(d.expr, pass.File.Table, pass.Budget)
			if err != nil {
				continue // unknown policies are the reference analyzer's turf
			}
			for _, ce := range ces {
				span := d.span
				if s := policyRefSpan(d.exprs, string(ce.Policy)); !s.IsZero() {
					span = s
				}
				pass.Report(Diagnostic{
					Code: CodeViolableFraming, Severity: Error, Span: span,
					Message: fmt.Sprintf("%s can violate policy %s: a %d-step history reaches the offending state",
						d.what(), policyLabel(pass.File, ce.Policy), len(ce.Trace)),
					Witness: violationWitness(ce, d.exprs),
				})
			}
		}
	},
}

// policyRefSpan returns the span of the first with/enforce reference
// resolving to the given policy identifier.
func policyRefSpan(exprs *parser.ExprSpans, id string) parser.Span {
	if exprs == nil {
		return parser.Span{}
	}
	for _, ns := range exprs.Policies {
		if ns.ID == id {
			return ns.Span
		}
	}
	return parser.Span{}
}

// --- SUSC012: deadlockable requests ---------------------------------------

var deadlockableAnalyzer = &Analyzer{
	Name:  "deadlockable",
	Doc:   "report requests whose conversation deadlocks against the service the owner's plan binds them to even though other repository services comply, with the shortest stuck run as witness",
	Codes: []string{CodeDeadlockableRequest},
	Run: func(pass *Pass) {
		for i, c := range pass.File.Clients {
			if pass.Budget.Exhausted() != nil {
				return // the suite loop reports the cutoff as SUSC016
			}
			if len(c.Plan) == 0 {
				continue
			}
			exprs := pass.clientExprSpans(i)
			seen := map[hexpr.RequestID]bool{}
			hexpr.Walk(c.Expr, func(x hexpr.Expr) {
				s, ok := x.(hexpr.Session)
				if !ok || seen[s.Req] {
					return
				}
				seen[s.Req] = true
				loc, bound := c.Plan[s.Req]
				if !bound {
					return
				}
				svc, known := pass.File.Repo[loc]
				if !known {
					return // dangling binding: the reference analyzer's turf
				}
				if ok, _ := pass.Cache.Compliant(s.Body, svc); ok {
					return
				}
				// Only report when the request is matchable at all; a body no
				// service complies with is the unmatched analyzer's turf.
				matchable := false
				for _, other := range pass.File.ServiceOrder {
					if other == loc {
						continue
					}
					if ok, err := pass.Cache.Compliant(s.Body, pass.File.Repo[other]); err == nil && ok {
						matchable = true
						break
					}
				}
				if !matchable {
					return
				}
				p, err := pass.Cache.Product(s.Body, svc)
				if err != nil {
					return
				}
				cw := p.FindWitness()
				if cw == nil {
					return
				}
				pass.Report(Diagnostic{
					Code: CodeDeadlockableRequest, Severity: Error, Span: pass.planTargetSpan(i, s.Req),
					Message: fmt.Sprintf("request %s of client %s deadlocks against service %s bound by its plan (another service in the repository complies)",
						s.Req, c.Name, loc),
					Witness: deadlockWitness(cw, exprs),
				})
			})
		}
	},
}

func (p *Pass) planTargetSpan(i int, req hexpr.RequestID) parser.Span {
	if t := p.spanTable(); t != nil && i < len(t.PlanTargets) {
		if s, ok := t.PlanTargets[i][string(req)]; ok {
			return s
		}
	}
	return p.clientSpan(i)
}

// --- SUSC013: unrealizable requests ---------------------------------------

var unrealizableAnalyzer = &Analyzer{
	Name:  "unrealizable",
	Doc:   "report clients whose every request complies with some repository service individually, yet for which no complete plan is valid — the requests' constraints are jointly unsatisfiable; a representative failing plan is the witness",
	Codes: []string{CodeUnrealizableRequest},
	Run: func(pass *Pass) {
		for i, c := range pass.File.Clients {
			if pass.Budget.Exhausted() != nil {
				return // the suite loop reports the cutoff as SUSC016
			}
			if len(hexpr.Requests(c.Expr)) == 0 {
				continue
			}
			// Every request must match some service individually: bodies no
			// service complies with are the unmatched analyzer's turf.
			allMatched := true
			seen := map[hexpr.RequestID]bool{}
			hexpr.Walk(c.Expr, func(x hexpr.Expr) {
				s, ok := x.(hexpr.Session)
				if !ok || seen[s.Req] || !allMatched {
					return
				}
				seen[s.Req] = true
				matched := false
				for _, loc := range pass.File.ServiceOrder {
					if ok, err := pass.Cache.Compliant(s.Body, pass.File.Repo[loc]); err == nil && ok {
						matched = true
						break
					}
				}
				if !matched {
					allMatched = false
				}
			})
			if !allMatched {
				continue
			}
			fam, err := plans.AssessWithFlows(pass.File.Repo, pass.File.Table, c.Loc, c.Expr, plans.Options{
				PruneNonCompliant: true,
				MaxPlans:          maxSemanticPlans,
				Cache:             pass.Cache,
				Budget:            pass.Budget,
				// The sweep is an existence probe over the whole plan
				// family; its per-plan verdicts stay out of the report
				// tiers (the lint result itself is persisted whole-file).
				NoReportTier: true,
			})
			if err != nil && !pass.reportSweepPanic(i, err) || fam.Len() == 0 {
				continue // plan space too large or empty: nothing sound to say
			}
			anyValid, anyUnknown := false, false
			for k := 0; k < fam.Len(); k++ {
				switch fam.Report(k).Verdict {
				case verify.Valid:
					anyValid = true
				case verify.Unknown:
					anyUnknown = true
				}
			}
			// An Unknown verdict means some plan's exploration was cut
			// short or panicked: "none of the assessed plans is valid" is
			// no longer evidence that no valid plan exists, so stay silent
			// rather than report a false SUSC013.
			if anyValid || anyUnknown {
				continue
			}
			w := &Witness{Kind: WitnessNoPlan}
			rep := fam.Plan(0).Map()
			for _, r := range sortedRequests(rep) {
				w.Steps = append(w.Steps, WitnessStep{
					Label: fmt.Sprintf("%s -> %s", r, rep[r]),
					Span:  pass.planTargetSpan(i, r),
				})
			}
			w.Note = fmt.Sprintf("representative plan fails: %s (%d plans examined, none valid)", fam.Report(0), fam.Len())
			pass.Report(Diagnostic{
				Code: CodeUnrealizableRequest, Severity: Error, Span: pass.clientSpan(i),
				Message: fmt.Sprintf("client %s is unrealizable: every request complies with some service, yet none of its %d complete plans is valid",
					c.Name, fam.Len()),
				Witness: w,
			})
		}
	},
}

// --- SUSC014: subsumed framings -------------------------------------------

var subsumedAnalyzer = &Analyzer{
	Name:  "subsumed",
	Doc:   "report framings nested inside a framing of a different policy that already forbids, on the declaration's events, every trace the inner one forbids (language inclusion over usage automata): the inner framing can never fire first",
	Codes: []string{CodeSubsumedFraming},
	Run: func(pass *Pass) {
		for _, d := range pass.decls() {
			if pass.Budget.Exhausted() != nil {
				return // the suite loop reports the cutoff as SUSC016
			}
			events := dedupEvents(hexpr.Events(d.expr))
			if len(events) == 0 {
				continue
			}
			var alphabet []string
			for _, ev := range events {
				alphabet = append(alphabet, ev.String())
			}
			// The inclusion checks run on compiled (dense-table) automata
			// memoised in the shared cache, keyed on the interned
			// (instance, alphabet) signature: declarations sharing an event
			// alphabet determinise each policy exactly once.
			alphaSig := ""
			for _, sym := range alphabet {
				alphaSig += "\x01" + sym
			}
			dfas := map[hexpr.PolicyID]*autom.Compiled{}
			instances := map[hexpr.PolicyID]*policy.Instance{}
			automatonFor := func(id hexpr.PolicyID) bool {
				if _, ok := dfas[id]; ok {
					return true
				}
				in, err := pass.File.Table.Get(id)
				if err != nil {
					return false
				}
				instances[id] = in
				dfas[id] = pass.Cache.CompiledDFA("susc014:"+string(id)+alphaSig, func() *autom.Compiled {
					return instanceNFA(in, events).Determinize(alphabet)
				})
				return true
			}
			reported := map[string]bool{}
			check := func(outer, inner hexpr.PolicyID) {
				key := string(outer) + "\x00" + string(inner)
				if outer == inner || reported[key] {
					return
				}
				if !automatonFor(outer) || !automatonFor(inner) {
					return
				}
				if dfas[inner].IsEmpty() {
					return // vacuous on this alphabet: the vacuity analyzer's turf
				}
				included, _ := dfas[inner].Included(dfas[outer])
				if !included {
					return
				}
				reported[key] = true
				word, _ := dfas[inner].AcceptingRun()
				w := &Witness{Kind: WitnessSubsumption}
				out := instances[outer]
				w.Start = out.StateName(out.StartState())
				// The NFA is only needed to reconstruct the outer automaton's
				// run for the witness, so it is built on the (rare) report path.
				run := instanceNFA(out, events).RunFor(word)
				for k, sym := range word {
					st := ""
					if run != nil && k+1 < len(run) {
						st = out.StateName(run[k+1])
					}
					w.Steps = append(w.Steps, WitnessStep{
						Label: sym, State: st, Span: eventOrChannelSpan(d.exprs, sym),
					})
				}
				w.Note = fmt.Sprintf("every trace %s forbids on these events is already forbidden by %s; shown: a shortest trace both forbid, with %s's run",
					policyLabel(pass.File, inner), policyLabel(pass.File, outer), policyLabel(pass.File, outer))
				span := d.span
				if s := policyRefSpan(d.exprs, string(inner)); !s.IsZero() {
					span = s
				}
				pass.Report(Diagnostic{
					Code: CodeSubsumedFraming, Severity: Warning, Span: span,
					Message: fmt.Sprintf("%s frames policy %s inside a framing of %s, which already forbids every trace it forbids: the inner framing never fires first",
						d.what(), policyLabel(pass.File, inner), policyLabel(pass.File, outer)),
					Witness: w,
				})
			}
			var walk func(e hexpr.Expr, active []hexpr.PolicyID)
			inspect := func(pol hexpr.PolicyID, body hexpr.Expr, active []hexpr.PolicyID) {
				if pol != hexpr.NoPolicy {
					for _, outer := range active {
						check(outer, pol)
					}
					active = append(active, pol)
				}
				walk(body, active)
			}
			walk = func(e hexpr.Expr, active []hexpr.PolicyID) {
				switch t := e.(type) {
				case hexpr.Seq:
					walk(t.Left, active)
					walk(t.Right, active)
				case hexpr.Rec:
					walk(t.Body, active)
				case hexpr.ExtChoice:
					for _, b := range t.Branches {
						walk(b.Cont, active)
					}
				case hexpr.IntChoice:
					for _, b := range t.Branches {
						walk(b.Cont, active)
					}
				case hexpr.Session:
					inspect(t.Policy, t.Body, active)
				case hexpr.Framing:
					inspect(t.Policy, t.Body, active)
				}
			}
			walk(d.expr, nil)
		}
	},
}

// dedupEvents drops duplicate events, preserving first-occurrence order.
func dedupEvents(evs []hexpr.Event) []hexpr.Event {
	seen := map[string]bool{}
	var out []hexpr.Event
	for _, ev := range evs {
		k := ev.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, ev)
		}
	}
	return out
}

// instanceNFA renders an instantiated usage automaton as an NFA over the
// given concrete events: guards are evaluated exactly (the events carry
// concrete arguments) and the implicit stay-put self-loops of instance
// stepping are materialised, so the NFA's language on this alphabet is
// exactly the set of forbidden traces.
func instanceNFA(in *policy.Instance, events []hexpr.Event) *autom.NFA {
	n := autom.NewNFA()
	for i := 1; i < in.NumStates(); i++ {
		n.AddState()
	}
	n.SetStart(in.StartState())
	for q := 0; q < in.NumStates(); q++ {
		n.SetAccept(q, in.IsFinalState(q))
		for _, ev := range events {
			for _, t := range in.Next(q, ev) {
				n.AddEdge(q, ev.String(), t)
			}
		}
	}
	return n
}

// --- SUSC015: dead automaton parts ----------------------------------------

var deadAutomatonAnalyzer = &Analyzer{
	Name:  "deadautomaton",
	Doc:   "report usage-automaton states unreachable from the start, and transitions whose source already cannot reach an offending state (guards ignored, a sound over-approximation) — dropping either changes no verdict; the witness shows a run the automaton does have",
	Codes: []string{CodeUnreachableState},
	Run: func(pass *Pass) {
		for _, name := range pass.File.PolicyOrder {
			if pass.Budget.Exhausted() != nil {
				return // the suite loop reports the cutoff as SUSC016
			}
			a := pass.File.Automata[name]
			n, index := templateNFA(a)
			if n.IsEmpty() {
				continue // wholly vacuous templates are the vacuity analyzer's turf
			}
			reach := n.Reachable()
			coreach := n.Coreachable()
			span := pass.policySpan(name)
			for _, s := range a.States {
				if reach[index[s]] {
					continue
				}
				w := templateRunWitness(n, a,
					fmt.Sprintf("state %s occurs on no run; shown: a shortest violating run, which avoids it", s))
				pass.Report(Diagnostic{
					Code: CodeUnreachableState, Severity: Info, Span: span,
					Message: fmt.Sprintf("policy %s: state %s is unreachable from %s even ignoring guards", name, s, a.Start),
					Witness: w,
				})
			}
			// A transition is dead only when its *source* is reachable but
			// cannot reach an offending state: the run has already escaped
			// into the benign region, so where the edge moves within it can
			// never matter. (Edges *into* that region from coreachable
			// states are load-bearing — they are how policies absolve a
			// trace — and are deliberately not flagged.)
			for _, e := range a.Edges {
				from := index[e.From]
				if !reach[from] || coreach[from] {
					continue // unreachable sources are covered by the state report
				}
				word, states := n.WordTo(from)
				w := &Witness{Kind: WitnessDeadCode, Start: a.Start}
				for k, sym := range word {
					st := ""
					if k+1 < len(states) {
						st = a.States[states[k+1]]
					}
					w.Steps = append(w.Steps, WitnessStep{Label: sym, State: st})
				}
				w.Steps = append(w.Steps, WitnessStep{Label: e.EventName, State: e.To})
				w.Note = fmt.Sprintf("no offending state is reachable from %s: dropping this transition changes no verdict", e.From)
				pass.Report(Diagnostic{
					Code: CodeUnreachableState, Severity: Info, Span: span,
					Message: fmt.Sprintf("policy %s: transition %s -> %s on %s moves within a region that cannot reach an offending state", name, e.From, e.To, e.EventName),
					Witness: w,
				})
			}
		}
	},
}

// templateNFA renders a policy template as an NFA over its event names,
// ignoring guards: every declared edge becomes a transition, final states
// accept. Reachability over it over-approximates reachability of any
// instance, so unreachable-here is sound evidence of dead automaton parts,
// and an empty language a vacuous template (SUSC003).
func templateNFA(a *policy.Automaton) (*autom.NFA, map[string]int) {
	n := autom.NewNFA()
	index := map[string]int{}
	for i, s := range a.States {
		if i > 0 {
			n.AddState()
		}
		index[s] = i
	}
	n.SetStart(index[a.Start])
	for _, f := range a.Finals {
		n.SetAccept(index[f], true)
	}
	for _, e := range a.Edges {
		n.AddEdge(index[e.From], e.EventName, index[e.To])
	}
	return n, index
}

// templateRunWitness builds a dead-code witness from a shortest violating
// run of the template NFA.
func templateRunWitness(n *autom.NFA, a *policy.Automaton, note string) *Witness {
	w := &Witness{Kind: WitnessDeadCode, Start: a.Start, Note: note}
	word, states := n.AcceptingRun()
	for k, sym := range word {
		st := ""
		if k+1 < len(states) {
			st = a.States[states[k+1]]
		}
		w.Steps = append(w.Steps, WitnessStep{Label: sym, State: st})
	}
	return w
}
