package parser

import (
	"errors"
	"fmt"

	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/policy"
)

// ClientDecl is a parsed client declaration.
type ClientDecl struct {
	Name string
	Loc  hexpr.Location
	Plan network.Plan
	Expr hexpr.Expr
}

// InstanceDecl records an `instance` declaration with its binding, so
// files can be formatted back to source.
type InstanceDecl struct {
	Alias    string
	Template string
	Binding  policy.Binding
	ID       hexpr.PolicyID
}

// File is a parsed source file: policy templates, instantiated policies
// (with their alias table), the service repository and the clients.
type File struct {
	// Automata are the policy templates by name.
	Automata map[string]*policy.Automaton
	// Instances maps instance aliases to their canonical identifiers.
	Instances map[string]hexpr.PolicyID
	// Table registers every instantiated policy.
	Table *policy.Table
	// Repo holds the declared services.
	Repo network.Repository
	// Clients in declaration order.
	Clients []ClientDecl

	// Declaration order, for formatting.
	PolicyOrder   []string
	InstanceOrder []InstanceDecl
	ServiceOrder  []hexpr.Location

	// Spans is the source-position side table of every declaration (and
	// the request/policy/mu constructs inside expressions), for positioned
	// diagnostics. Always populated by ParseFile and ParseFileLenient.
	Spans *SpanTable
}

// Client returns the declared client with the given name.
func (f *File) Client(name string) (ClientDecl, error) {
	for _, c := range f.Clients {
		if c.Name == name {
			return c, nil
		}
	}
	return ClientDecl{}, fmt.Errorf("parser: no client %q", name)
}

// ErrRedeclared tags redeclaration issues, so tools inspecting lenient
// parse Issues can recognise them with errors.Is.
var ErrRedeclared = errors.New("redeclared")

// ParseFile parses a full source file. Any error — syntactic or semantic
// (redeclaration, ill-formed expression, bad instantiation) — aborts the
// parse.
func ParseFile(src string) (*File, error) {
	f, _, err := parseFile(src, false)
	return f, err
}

// ParseFileLenient parses a full source file, recovering from semantic
// declaration-level problems: redeclarations, ill-formed expressions and
// bad policy instantiations are recorded as Issues (and the offending
// declaration skipped) instead of aborting the parse. Syntax errors are
// still fatal. The linter builds on this to diagnose several problems in
// one run.
func ParseFileLenient(src string) (*File, []Issue, error) {
	return parseFile(src, true)
}

func parseFile(src string, lenient bool) (*File, []Issue, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks, aliases: map[string]hexpr.PolicyID{}, lenient: lenient, spans: newSpanTable(),
		served: map[hexpr.RequestID]opening{}}
	f := &File{
		Automata:  map[string]*policy.Automaton{},
		Instances: p.aliases,
		Table:     policy.NewTable(),
		Repo:      network.Repository{},
		Spans:     p.spans,
	}
	for !p.at(tokEOF) {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, p.issues, p.errf(t, "expected a declaration, found %s", t)
		}
		switch t.text {
		case "policy":
			if err := p.policyDecl(f); err != nil {
				return nil, p.issues, err
			}
		case "instance":
			if err := p.instanceDecl(f); err != nil {
				return nil, p.issues, err
			}
		case "service":
			if err := p.serviceDecl(f); err != nil {
				return nil, p.issues, err
			}
		case "client":
			if err := p.clientDecl(f); err != nil {
				return nil, p.issues, err
			}
		default:
			return nil, p.issues, p.errf(t, "unknown declaration %q (want policy, instance, service or client)", t.text)
		}
	}
	return f, p.issues, nil
}

// semantic reports a declaration-level semantic problem: in lenient mode
// it is recorded as an Issue and parsing continues (the caller must skip
// registering the declaration); in strict mode it is a parse error.
func (p *parser) semantic(t token, declKind, name string, err error) error {
	if p.lenient {
		p.issues = append(p.issues, Issue{
			Span: t.span(), DeclKind: declKind, Name: name, Err: err, Exprs: p.cur,
		})
		return nil
	}
	return p.errf(t, "%v", err)
}

// MustParseFile is ParseFile panicking on error.
func MustParseFile(src string) *File {
	f, err := ParseFile(src)
	if err != nil {
		panic(err)
	}
	return f
}

// policyDecl := 'policy' ident '(' [ident kind (',' ident kind)*] ')'
// '{' policyItem* '}'
func (p *parser) policyDecl(f *File) error {
	p.next() // policy
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	a := &policy.Automaton{Name: name.text}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	for !p.at(tokRParen) {
		if len(a.Params) > 0 {
			if _, err := p.expect(tokComma); err != nil {
				return err
			}
		}
		pname, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		kind, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		var k policy.ParamKind
		switch kind.text {
		case "set":
			k = policy.SetParam
		case "int":
			k = policy.IntParam
		default:
			return p.errf(kind, "parameter kind must be 'set' or 'int', found %q", kind.text)
		}
		a.Params = append(a.Params, policy.Param{Name: pname.text, Kind: k})
	}
	p.next() // ')'
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for !p.at(tokRBrace) {
		kw, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		switch kw.text {
		case "states":
			for p.at(tokIdent) {
				a.States = append(a.States, p.next().text)
			}
		case "start":
			s, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			a.Start = s.text
		case "final":
			for p.at(tokIdent) {
				a.Finals = append(a.Finals, p.next().text)
			}
		case "edge":
			e, err := p.edgeItem()
			if err != nil {
				return err
			}
			a.Edges = append(a.Edges, e)
		default:
			return p.errf(kw, "unknown policy item %q (want states, start, final or edge)", kw.text)
		}
		if _, err := p.expect(tokSemi); err != nil {
			return err
		}
	}
	p.next() // '}'
	if _, ok := f.Automata[name.text]; ok {
		return p.semantic(name, "policy", name.text, fmt.Errorf("policy %q %w", name.text, ErrRedeclared))
	}
	if err := a.Validate(); err != nil {
		return p.semantic(name, "policy", name.text, err)
	}
	f.Automata[name.text] = a
	f.PolicyOrder = append(f.PolicyOrder, name.text)
	p.spans.Policies[name.text] = name.span()
	return nil
}

// edgeItem := from '->' to 'on' event '(' vars ')' ['when' cond (',' cond)*]
func (p *parser) edgeItem() (policy.Edge, error) {
	var e policy.Edge
	from, err := p.expect(tokIdent)
	if err != nil {
		return e, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return e, err
	}
	to, err := p.expect(tokIdent)
	if err != nil {
		return e, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return e, err
	}
	ev, err := p.expect(tokIdent)
	if err != nil {
		return e, err
	}
	e.From, e.To, e.EventName = from.text, to.text, ev.text
	// variable list
	vars := map[string]int{}
	if p.at(tokLParen) {
		p.next()
		for !p.at(tokRParen) {
			if len(vars) > 0 {
				if _, err := p.expect(tokComma); err != nil {
					return e, err
				}
			}
			v, err := p.expect(tokIdent)
			if err != nil {
				return e, err
			}
			if _, dup := vars[v.text]; dup {
				return e, p.errf(v, "duplicate variable %q", v.text)
			}
			vars[v.text] = len(vars)
			e.Guards = append(e.Guards, policy.GAny())
		}
		p.next() // ')'
	}
	// conditions
	if t := p.peek(); t.kind == tokIdent && t.text == "when" {
		p.next()
		for {
			if err := p.condItem(&e, vars); err != nil {
				return e, err
			}
			if !p.at(tokComma) {
				break
			}
			p.next()
		}
	}
	return e, nil
}

// condItem := var ('in'|'notin') param | var ('<='|'<'|'>='|'>') param |
// var ('=='|'!=') value
func (p *parser) condItem(e *policy.Edge, vars map[string]int) error {
	v, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	idx, ok := vars[v.text]
	if !ok {
		return p.errf(v, "unknown variable %q in guard", v.text)
	}
	if e.Guards[idx].Kind != policy.Any {
		return p.errf(v, "variable %q constrained twice", v.text)
	}
	t := p.next()
	switch {
	case t.kind == tokIdent && t.text == "in":
		param, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		e.Guards[idx] = policy.G(policy.InSet, param.text)
	case t.kind == tokIdent && t.text == "notin":
		param, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		e.Guards[idx] = policy.G(policy.NotInSet, param.text)
	case t.kind == tokLe, t.kind == tokLt, t.kind == tokGe, t.kind == tokGt:
		param, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		kind := map[tokenKind]policy.GuardKind{
			tokLe: policy.LE, tokLt: policy.LT, tokGe: policy.GE, tokGt: policy.GT,
		}[t.kind]
		e.Guards[idx] = policy.G(kind, param.text)
	case t.kind == tokEq:
		val, err := p.value()
		if err != nil {
			return err
		}
		e.Guards[idx] = policy.GEq(val)
	case t.kind == tokNe:
		val, err := p.value()
		if err != nil {
			return err
		}
		e.Guards[idx] = policy.GNe(val)
	default:
		return p.errf(t, "expected a guard operator, found %s", t)
	}
	return nil
}

// instanceDecl := 'instance' ident '=' ident '(' bindings ')' ';'
func (p *parser) instanceDecl(f *File) error {
	p.next() // instance
	alias, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	tmplTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	b := policy.Binding{Sets: map[string][]hexpr.Value{}, Ints: map[string]int{}}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	first := true
	for !p.at(tokRParen) {
		if !first {
			if _, err := p.expect(tokComma); err != nil {
				return err
			}
		}
		first = false
		pname, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokAssign); err != nil {
			return err
		}
		if p.at(tokLBrace) { // set literal
			p.next()
			var vals []hexpr.Value
			for !p.at(tokRBrace) {
				if len(vals) > 0 {
					if _, err := p.expect(tokComma); err != nil {
						return err
					}
				}
				v, err := p.value()
				if err != nil {
					return err
				}
				vals = append(vals, v)
			}
			p.next() // '}'
			b.Sets[pname.text] = vals
		} else {
			t, err := p.expect(tokInt)
			if err != nil {
				return err
			}
			n := 0
			fmt.Sscanf(t.text, "%d", &n)
			b.Ints[pname.text] = n
		}
	}
	p.next() // ')'
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if _, dup := f.Instances[alias.text]; dup {
		return p.semantic(alias, "instance", alias.text, fmt.Errorf("instance %q %w", alias.text, ErrRedeclared))
	}
	tmpl, ok := f.Automata[tmplTok.text]
	if !ok {
		return p.semantic(tmplTok, "instance", alias.text, fmt.Errorf("unknown policy %q", tmplTok.text))
	}
	in, err := tmpl.Instantiate(b)
	if err != nil {
		return p.semantic(alias, "instance", alias.text, err)
	}
	f.Instances[alias.text] = in.ID()
	f.Table.Add(in)
	f.InstanceOrder = append(f.InstanceOrder, InstanceDecl{
		Alias: alias.text, Template: tmplTok.text, Binding: b, ID: in.ID(),
	})
	p.spans.Instances[alias.text] = alias.span()
	return nil
}

// serviceDecl := 'service' ident '=' expr ';'
func (p *parser) serviceDecl(f *File) error {
	p.next() // service
	loc, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	p.cur, p.opens = newExprSpans(), p.opens[:0]
	defer func() { p.cur = nil }()
	e, err := p.expr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if _, dup := f.Repo[hexpr.Location(loc.text)]; dup {
		return p.semantic(loc, "service", loc.text, fmt.Errorf("service %q %w", loc.text, ErrRedeclared))
	}
	if err := hexpr.Check(e); err != nil {
		return p.semantic(loc, "service", loc.text, fmt.Errorf("service %s: %w", loc.text, err))
	}
	if at, err := p.clash("service", loc.text); err != nil {
		return p.semantic(at, "service", loc.text, err)
	}
	for _, o := range p.opens {
		if _, ok := p.served[o.s.Req]; !ok {
			p.served[o.s.Req] = o
		}
	}
	f.Repo[hexpr.Location(loc.text)] = e
	f.ServiceOrder = append(f.ServiceOrder, hexpr.Location(loc.text))
	p.spans.Services[loc.text] = loc.span()
	p.spans.ServiceExprs[loc.text] = p.cur
	return nil
}

// clientDecl := 'client' ident 'at' ident ['plan' '{' r '->' loc, ... '}']
// '=' expr ';'
func (p *parser) clientDecl(f *File) error {
	p.next() // client
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if err := p.expectKeyword("at"); err != nil {
		return err
	}
	loc, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	decl := ClientDecl{Name: name.text, Loc: hexpr.Location(loc.text)}
	planSpans := map[string]Span{}
	if t := p.peek(); t.kind == tokIdent && t.text == "plan" {
		p.next()
		if _, err := p.expect(tokLBrace); err != nil {
			return err
		}
		decl.Plan = network.Plan{}
		for !p.at(tokRBrace) {
			if len(decl.Plan) > 0 {
				if _, err := p.expect(tokComma); err != nil {
					return err
				}
			}
			req, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			if _, err := p.expect(tokArrow); err != nil {
				return err
			}
			to, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			decl.Plan[hexpr.RequestID(req.text)] = hexpr.Location(to.text)
			planSpans[req.text] = to.span()
		}
		p.next() // '}'
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	p.cur, p.opens = newExprSpans(), p.opens[:0]
	defer func() { p.cur = nil }()
	e, err := p.expr()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if err := hexpr.Check(e); err != nil {
		return p.semantic(name, "client", name.text, fmt.Errorf("client %s: %w", name.text, err))
	}
	if at, err := p.clash("client", name.text); err != nil {
		return p.semantic(at, "client", name.text, err)
	}
	p.clientOpens = append(p.clientOpens, p.opens...)
	decl.Expr = e
	f.Clients = append(f.Clients, decl)
	p.spans.Clients = append(p.spans.Clients, name.span())
	p.spans.PlanTargets = append(p.spans.PlanTargets, planSpans)
	p.spans.ClientExprs = append(p.spans.ClientExprs, p.cur)
	return nil
}

// opening is one `open` of a parsed declaration: its session, the token
// of its request identifier, and the declaration's kind and name.
type opening struct {
	s          hexpr.Session
	tok        token
	kind, name string
}

// clash checks the rule that every session opening a request identifier,
// in a client and in the repository it plans against, opens it with the
// same framing policy and body: the plan engines keep one body per
// identifier (Definition 1 makes identifiers unique, and alternative
// services may share one with identical sessions). The sessions of the
// declaration being registered are checked against its own earlier ones,
// against the registered services and, for a service, against every
// registered client; two clients may use one identifier for different
// requests. It returns the request token of the first session that breaks
// the rule, with an error naming the earlier declaration.
func (p *parser) clash(kind, name string) (token, error) {
	for i := range p.opens {
		o := &p.opens[i]
		o.kind, o.name = kind, name
		for _, q := range p.opens[:i] {
			if q.s.Req == o.s.Req {
				if err := unlike(*o, q); err != nil {
					return o.tok, err
				}
				break // q passed every check o faces
			}
		}
		if q, ok := p.served[o.s.Req]; ok {
			if err := unlike(*o, q); err != nil {
				return o.tok, err
			}
		}
		if kind != "service" {
			continue
		}
		for _, q := range p.clientOpens {
			if q.s.Req == o.s.Req {
				if err := unlike(*o, q); err != nil {
					return o.tok, err
				}
			}
		}
	}
	return token{}, nil
}

// unlike returns the error of o, a session of the same request identifier
// as the earlier q, when the two open it with different framing policies
// or bodies.
func unlike(o, q opening) error {
	what := "framing policy"
	if o.s.Policy == q.s.Policy {
		if hexpr.Identical(o.s.Body, q.s.Body) {
			return nil
		}
		what = "body"
	}
	return fmt.Errorf("request %s is opened with another %s than in %s %s at %s",
		o.s.Req, what, q.kind, q.name, q.tok.span())
}
