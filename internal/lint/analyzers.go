package lint

import (
	"errors"
	"fmt"

	"susc/internal/hexpr"
	"susc/internal/parser"
)

// --- span lookup helpers ------------------------------------------------

func (p *Pass) spanTable() *parser.SpanTable {
	if p.File != nil && p.File.Spans != nil {
		return p.File.Spans
	}
	return nil
}

func (p *Pass) policySpan(name string) parser.Span {
	if t := p.spanTable(); t != nil {
		return t.Policies[name]
	}
	return parser.Span{}
}

func (p *Pass) instanceSpan(alias string) parser.Span {
	if t := p.spanTable(); t != nil {
		return t.Instances[alias]
	}
	return parser.Span{}
}

func (p *Pass) serviceSpan(loc hexpr.Location) parser.Span {
	if t := p.spanTable(); t != nil {
		return t.Services[string(loc)]
	}
	return parser.Span{}
}

func (p *Pass) clientSpan(i int) parser.Span {
	if t := p.spanTable(); t != nil && i < len(t.Clients) {
		return t.Clients[i]
	}
	return parser.Span{}
}

func (p *Pass) serviceExprSpans(loc hexpr.Location) *parser.ExprSpans {
	if t := p.spanTable(); t != nil {
		return t.ServiceExprs[string(loc)]
	}
	return nil
}

func (p *Pass) clientExprSpans(i int) *parser.ExprSpans {
	if t := p.spanTable(); t != nil && i < len(t.ClientExprs) {
		return t.ClientExprs[i]
	}
	return nil
}

// --- declaration enumeration --------------------------------------------

// decl is one expression-bearing declaration, uniformly over services and
// clients.
type decl struct {
	kind  string // "service" or "client"
	name  string
	expr  hexpr.Expr
	span  parser.Span
	exprs *parser.ExprSpans
}

func (d decl) what() string { return d.kind + " " + d.name }

// decls enumerates services (declaration order) then clients.
func (p *Pass) decls() []decl {
	var out []decl
	for _, loc := range p.File.ServiceOrder {
		out = append(out, decl{
			kind: "service", name: string(loc), expr: p.File.Repo[loc],
			span: p.serviceSpan(loc), exprs: p.serviceExprSpans(loc),
		})
	}
	for i, c := range p.File.Clients {
		out = append(out, decl{
			kind: "client", name: c.Name, expr: c.Expr,
			span: p.clientSpan(i), exprs: p.clientExprSpans(i),
		})
	}
	return out
}

// reqBody is one request occurrence: who opens it, under which identifier,
// with what conversation body.
type reqBody struct {
	owner decl
	req   hexpr.RequestID
	body  hexpr.Expr
	span  parser.Span
}

// requestBodies enumerates every request occurrence in the file, once per
// (owner, request) pair, with its span.
func (p *Pass) requestBodies() []reqBody {
	if p.bodies != nil {
		return p.bodies
	}
	for _, d := range p.decls() {
		seen := map[hexpr.RequestID]bool{}
		hexpr.Walk(d.expr, func(x hexpr.Expr) {
			s, ok := x.(hexpr.Session)
			if !ok || seen[s.Req] {
				return
			}
			seen[s.Req] = true
			span := d.span
			if d.exprs != nil {
				if os, ok := d.exprs.Opens[string(s.Req)]; ok {
					span = os
				}
			}
			p.bodies = append(p.bodies, reqBody{owner: d, req: s.Req, body: s.Body, span: span})
		})
	}
	return p.bodies
}

// --- SUSC000 / SUSC001: well-formedness ----------------------------------

var wellformedAnalyzer = &Analyzer{
	Name:  "wellformed",
	Doc:   "report declarations rejected by the well-formedness restrictions of Definition 1; non-contractive recursion (unguarded or non-tail recursion variables, μh.h) gets its own code",
	Codes: []string{CodeIllFormed, CodeNonContractive},
	Run: func(pass *Pass) {
		for _, is := range pass.Issues {
			if errors.Is(is.Err, parser.ErrRedeclared) {
				continue // duplicate analyzer's turf
			}
			var ce *hexpr.CheckError
			if !errors.As(is.Err, &ce) {
				pass.Reportf(CodeIllFormed, Error, is.Span, "%s %s: %v", is.DeclKind, is.Name, is.Err)
				continue
			}
			switch ce.Kind {
			case hexpr.UnguardedRecursion, hexpr.NonTailRecursion:
				span := is.Span
				if is.Exprs != nil && len(is.Exprs.Mus) > 0 {
					span = is.Exprs.Mus[0].Span
				}
				pass.Reportf(CodeNonContractive, Error, span,
					"%s %s has non-contractive recursion: %s (it can diverge without making progress)",
					is.DeclKind, is.Name, ce.Reason)
			default:
				pass.Reportf(CodeIllFormed, Error, is.Span, "%s %s is ill-formed: %s", is.DeclKind, is.Name, ce.Reason)
			}
		}
	},
}

// --- SUSC002: redundant / ill-nested framings ----------------------------

var framingAnalyzer = &Analyzer{
	Name:  "framing",
	Doc:   "report security framings that cannot matter: a framing nested inside another framing (or policy-annotated session) of the same policy, and framings enclosing no behaviour",
	Codes: []string{CodeFraming},
	Run: func(pass *Pass) {
		for _, d := range pass.decls() {
			enforceSpans := map[string][]parser.Span{}
			if d.exprs != nil {
				for _, ns := range d.exprs.Enforces {
					enforceSpans[ns.ID] = append(enforceSpans[ns.ID], ns.Span)
				}
			}
			// first anchors an empty framing, last a nested re-framing (the
			// innermost occurrence is the redundant one).
			first := func(id hexpr.PolicyID) parser.Span {
				if ss := enforceSpans[string(id)]; len(ss) > 0 {
					return ss[0]
				}
				return d.span
			}
			last := func(id hexpr.PolicyID) parser.Span {
				if ss := enforceSpans[string(id)]; len(ss) > 0 {
					return ss[len(ss)-1]
				}
				return d.span
			}
			var walk func(e hexpr.Expr, active map[hexpr.PolicyID]bool)
			walk = func(e hexpr.Expr, active map[hexpr.PolicyID]bool) {
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
					enter(t.Policy, t.Body, active, walk)
				case hexpr.Framing:
					if active[t.Policy] {
						pass.Reportf(CodeFraming, Warning, last(t.Policy),
							"%s re-frames policy %s inside an enclosing framing of the same policy (the inner framing is redundant)",
							d.what(), policyLabel(pass.File, t.Policy))
					}
					if hexpr.IsNil(t.Body) {
						pass.Reportf(CodeFraming, Warning, first(t.Policy),
							"%s frames policy %s around no behaviour (the framing encloses only eps)",
							d.what(), policyLabel(pass.File, t.Policy))
					}
					enter(t.Policy, t.Body, active, walk)
				}
			}
			walk(d.expr, map[hexpr.PolicyID]bool{})
		}
	},
}

// enter walks body with pol added to the active framing set (and removed
// again afterwards, so siblings are unaffected).
func enter(pol hexpr.PolicyID, body hexpr.Expr,
	active map[hexpr.PolicyID]bool, walk func(hexpr.Expr, map[hexpr.PolicyID]bool)) {
	if pol == hexpr.NoPolicy || active[pol] {
		walk(body, active)
		return
	}
	active[pol] = true
	walk(body, active)
	delete(active, pol)
}

// policyLabel renders a policy identifier for messages, preferring the
// declared instance alias over the canonical instantiated identifier.
func policyLabel(f *parser.File, id hexpr.PolicyID) string {
	for alias, aid := range f.Instances {
		if aid == id {
			return alias
		}
	}
	return string(id)
}

// --- SUSC003: vacuous policies -------------------------------------------

var vacuityAnalyzer = &Analyzer{
	Name:  "vacuity",
	Doc:   "report policy templates whose offending states are unreachable from the start state even ignoring guards: no trace can ever violate such a policy, so framings of it never fire",
	Codes: []string{CodeVacuousPolicy},
	Run: func(pass *Pass) {
		for _, name := range pass.File.PolicyOrder {
			a := pass.File.Automata[name]
			if len(a.Finals) == 0 {
				pass.Reportf(CodeVacuousPolicy, Warning, pass.policySpan(name),
					"policy %s declares no offending state: it can never be violated, so framings of it never fire", name)
				continue
			}
			if n, _ := templateNFA(a); n.IsEmpty() {
				pass.Reportf(CodeVacuousPolicy, Warning, pass.policySpan(name),
					"policy %s can never reach an offending state (%v is unreachable from %s even ignoring guards): framings of it never fire",
					name, a.Finals, a.Start)
			}
		}
	},
}

// --- SUSC004: always-violated policies -----------------------------------

var contradictionAnalyzer = &Analyzer{
	Name:  "contradiction",
	Doc:   "report policy instances violated by the empty history (the start state is already offending): every service framed with such an instance is invalid, so every plan using it fails",
	Codes: []string{CodeAlwaysViolated},
	Run: func(pass *Pass) {
		for _, d := range pass.File.InstanceOrder {
			in, err := pass.File.Table.Get(d.ID)
			if err != nil {
				continue
			}
			if in.Final(in.Initial()) {
				pass.Report(Diagnostic{
					Code: CodeAlwaysViolated, Severity: Error, Span: pass.instanceSpan(d.Alias),
					Message: fmt.Sprintf("instance %s is violated by the empty history: every service framed with it is invalid", d.Alias),
					Related: []Related{{Span: pass.policySpan(d.Template),
						Message: fmt.Sprintf("policy %s declares its start state as offending", d.Template)}},
				})
			}
		}
	},
}

// --- SUSC005: dead repository services -----------------------------------

var deadServiceAnalyzer = &Analyzer{
	Name:  "deadservice",
	Doc:   "report repository services that no request body in the file complies with: plan synthesis can never select them, so they are dead weight",
	Codes: []string{CodeDeadService},
	Run: func(pass *Pass) {
		bodies := pass.requestBodies()
		if len(bodies) == 0 {
			return
		}
		for _, loc := range pass.File.ServiceOrder {
			svc := pass.File.Repo[loc]
			dead := true
			for _, b := range bodies {
				ok, err := pass.Cache.Compliant(b.body, svc)
				if err == nil && ok {
					dead = false
					break
				}
			}
			if dead {
				pass.Reportf(CodeDeadService, Warning, pass.serviceSpan(loc),
					"service %s is dead: none of the %d request bodies in the file complies with it, so no plan can ever select it",
					loc, len(bodies))
			}
		}
	},
}

// --- SUSC006: unmatched requests -----------------------------------------

var unmatchedAnalyzer = &Analyzer{
	Name:  "unmatched",
	Doc:   "report requests whose body complies with no repository service: no binding exists for them, so every plan of their owner is invalid",
	Codes: []string{CodeUnmatchedRequest},
	Run: func(pass *Pass) {
		for _, b := range pass.requestBodies() {
			matched := false
			for _, loc := range pass.File.ServiceOrder {
				ok, err := pass.Cache.Compliant(b.body, pass.File.Repo[loc])
				if err == nil && ok {
					matched = true
					break
				}
			}
			if !matched {
				pass.Reportf(CodeUnmatchedRequest, Error, b.span,
					"request %s of %s complies with no service in the repository: every plan is invalid",
					b.req, b.owner.what())
			}
		}
	},
}

// --- SUSC007: duplicate / shadowed declarations --------------------------

var duplicateAnalyzer = &Analyzer{
	Name:  "duplicates",
	Doc:   "report duplicate declarations (policies, instances, services, clients) and cross-kind shadowing: client locations that also name services, instance aliases that also name policy templates",
	Codes: []string{CodeDuplicateDecl},
	Run: func(pass *Pass) {
		for _, is := range pass.Issues {
			if errors.Is(is.Err, parser.ErrRedeclared) {
				pass.Reportf(CodeDuplicateDecl, Error, is.Span, "%v", is.Err)
			}
		}
		seen := map[string]int{}
		for i, c := range pass.File.Clients {
			if j, dup := seen[c.Name]; dup {
				pass.Report(Diagnostic{
					Code: CodeDuplicateDecl, Severity: Error, Span: pass.clientSpan(i),
					Message: fmt.Sprintf("client %q redeclared", c.Name),
					Related: []Related{{Span: pass.clientSpan(j), Message: "first declared here"}},
				})
				continue
			}
			seen[c.Name] = i
		}
		for i, c := range pass.File.Clients {
			if _, isService := pass.File.Repo[c.Loc]; isService {
				pass.Report(Diagnostic{
					Code: CodeDuplicateDecl, Severity: Warning, Span: pass.clientSpan(i),
					Message: fmt.Sprintf("client %s is placed at location %s, which also names a repository service", c.Name, c.Loc),
					Related: []Related{{Span: pass.serviceSpan(c.Loc), Message: "service declared here"}},
				})
			}
		}
		for _, d := range pass.File.InstanceOrder {
			if _, shadows := pass.File.Automata[d.Alias]; shadows {
				pass.Report(Diagnostic{
					Code: CodeDuplicateDecl, Severity: Warning, Span: pass.instanceSpan(d.Alias),
					Message: fmt.Sprintf("instance alias %s shadows the policy template of the same name", d.Alias),
					Related: []Related{{Span: pass.policySpan(d.Alias), Message: "policy declared here"}},
				})
			}
		}
	},
}

// --- SUSC008: unused policy instances ------------------------------------

var unusedInstanceAnalyzer = &Analyzer{
	Name:  "unusedinstance",
	Doc:   "report policy instances never referenced by a with or enforce clause",
	Codes: []string{CodeUnusedInstance},
	Run: func(pass *Pass) {
		used := usedPolicyIDs(pass)
		for _, d := range pass.File.InstanceOrder {
			if !used[string(d.ID)] {
				pass.Reportf(CodeUnusedInstance, Info, pass.instanceSpan(d.Alias),
					"instance %s is never used in a with or enforce clause", d.Alias)
			}
		}
	},
}

// --- SUSC009: unused policy templates ------------------------------------

var unusedPolicyAnalyzer = &Analyzer{
	Name:  "unusedpolicy",
	Doc:   "report policy templates that are never instantiated and never referenced directly",
	Codes: []string{CodeUnusedPolicy},
	Run: func(pass *Pass) {
		used := usedPolicyIDs(pass)
		instantiated := map[string]bool{}
		for _, d := range pass.File.InstanceOrder {
			instantiated[d.Template] = true
		}
		for _, name := range pass.File.PolicyOrder {
			if !instantiated[name] && !used[name] {
				pass.Reportf(CodeUnusedPolicy, Info, pass.policySpan(name),
					"policy %s is never instantiated", name)
			}
		}
	},
}

// usedPolicyIDs collects every policy identifier referenced by a with or
// enforce clause of any declaration.
func usedPolicyIDs(pass *Pass) map[string]bool {
	used := map[string]bool{}
	for _, d := range pass.decls() {
		for _, id := range hexpr.Policies(d.expr) {
			used[string(id)] = true
		}
	}
	return used
}

// --- SUSC010: dangling references ----------------------------------------

var referenceAnalyzer = &Analyzer{
	Name:  "references",
	Doc:   "report dangling references: plan entries binding unknown services or requests nothing opens, and with/enforce clauses naming policies no instance declares",
	Codes: []string{CodeDanglingRef},
	Run: func(pass *Pass) {
		opened := map[hexpr.RequestID]bool{}
		for _, d := range pass.decls() {
			for _, r := range hexpr.Requests(d.expr) {
				opened[r] = true
			}
		}
		table := pass.spanTable()
		for i, c := range pass.File.Clients {
			var targets map[string]parser.Span
			if table != nil && i < len(table.PlanTargets) {
				targets = table.PlanTargets[i]
			}
			for _, r := range sortedRequests(c.Plan) {
				loc := c.Plan[r]
				span := pass.clientSpan(i)
				if s, ok := targets[string(r)]; ok {
					span = s
				}
				if _, ok := pass.File.Repo[loc]; !ok {
					pass.Reportf(CodeDanglingRef, Error, span,
						"plan of client %s binds %s to unknown service %q", c.Name, r, loc)
				}
				if !opened[r] {
					pass.Reportf(CodeDanglingRef, Warning, span,
						"plan of client %s binds request %q, which nothing in the file opens", c.Name, r)
				}
			}
		}
		known := map[string]bool{}
		for _, id := range pass.File.Instances {
			known[string(id)] = true
		}
		for _, d := range pass.decls() {
			if d.exprs == nil {
				continue
			}
			for _, ns := range d.exprs.Policies {
				if known[ns.ID] || ns.ID == string(hexpr.NoPolicy) {
					continue
				}
				if _, isTemplate := pass.File.Automata[ns.Name]; isTemplate {
					pass.Reportf(CodeDanglingRef, Error, ns.Span,
						"%s refers to policy template %s directly; declare an instance and use its alias", d.what(), ns.Name)
				} else {
					pass.Reportf(CodeDanglingRef, Error, ns.Span,
						"%s refers to unknown policy %q (no instance declares it)", d.what(), ns.Name)
				}
			}
		}
	},
}

// sortedRequests returns the plan's request identifiers in stable order.
func sortedRequests(plan map[hexpr.RequestID]hexpr.Location) []hexpr.RequestID {
	out := make([]hexpr.RequestID, 0, len(plan))
	for r := range plan {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
