package parser

import (
	"fmt"

	"susc/internal/hexpr"
)

// parser holds the token stream and the instance-alias resolution used for
// `with` and `enforce` clauses.
type parser struct {
	toks    []token
	pos     int
	aliases map[string]hexpr.PolicyID
	depth   int

	// File-level state (ParseFile / ParseFileLenient): lenient parsing
	// collects declaration-level issues instead of failing, spans is the
	// whole-file position side table, and cur collects expression-level
	// positions for the declaration being parsed.
	lenient bool
	issues  []Issue
	spans   *SpanTable
	cur     *ExprSpans

	// opens collects the sessions of the declaration being parsed; served
	// holds the first session of each request identifier the registered
	// services open, and clientOpens the sessions of every registered
	// client. clash checks a declaration's sessions against them.
	opens       []opening
	served      map[hexpr.RequestID]opening
	clientOpens []opening
}

// maxParseDepth bounds expression nesting so hostile inputs (kilobytes of
// "((((…") fail with a parse error instead of exhausting the stack.
const maxParseDepth = 2048

// push enters one nesting level of the expression grammar.
func (p *parser) push(t token) error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errf(t, "expression nested more than %d levels deep", maxParseDepth)
	}
	return nil
}

func (p *parser) peek() token         { return p.toks[p.pos] }
func (p *parser) next() token         { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokenKind) bool { return p.toks[p.pos].kind == k }

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, p.errf(t, "expected %s, found %s", k, t)
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokIdent || t.text != kw {
		return p.errf(t, "expected %q, found %s", kw, t)
	}
	p.next()
	return nil
}

// resolvePolicy maps an instance alias to its PolicyID. Unknown aliases are
// kept verbatim as identifiers, so expression-only parsing (ParseExpr)
// works without declarations.
func (p *parser) resolvePolicy(name string) hexpr.PolicyID {
	if p.aliases != nil {
		if id, ok := p.aliases[name]; ok {
			return id
		}
	}
	return hexpr.PolicyID(name)
}

// ParseExpr parses a stand-alone history expression. Policy names in
// `with`/`enforce` clauses are taken verbatim as instance identifiers.
func ParseExpr(src string) (hexpr.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errf(p.peek(), "trailing input: %s", p.peek())
	}
	return e, nil
}

// MustParseExpr is ParseExpr panicking on error, for statically known
// sources in examples and tests.
func MustParseExpr(src string) hexpr.Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// expr := 'mu' ident '.' expr | choice
func (p *parser) expr() (hexpr.Expr, error) {
	if err := p.push(p.peek()); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if t := p.peek(); t.kind == tokIdent && t.text == "mu" {
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if p.cur != nil {
			p.cur.Mus = append(p.cur.Mus, NameSpan{Name: name.text, Span: name.span()})
		}
		if _, err := p.expect(tokDot); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return hexpr.Mu(name.text, body), nil
	}
	return p.choice()
}

// choice := seq (('+' seq)* | ('(+)' seq)*)
func (p *parser) choice() (hexpr.Expr, error) {
	first, err := p.seq()
	if err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tokPlus, tokOPlus:
	default:
		return first, nil
	}
	op := p.peek().kind
	opTok := p.peek()
	summands := []hexpr.Expr{first}
	for p.peek().kind == op {
		p.next()
		s, err := p.seq()
		if err != nil {
			return nil, err
		}
		summands = append(summands, s)
	}
	if k := p.peek().kind; k == tokPlus || k == tokOPlus {
		return nil, p.errf(p.peek(), "cannot mix '+' and '(+)' in one choice; parenthesise")
	}
	var branches []hexpr.Branch
	for _, s := range summands {
		bs, err := p.asBranches(s, op, opTok)
		if err != nil {
			return nil, err
		}
		branches = append(branches, bs...)
	}
	if op == tokPlus {
		return hexpr.Ext(branches...), nil
	}
	return hexpr.IntCh(branches...), nil
}

// asBranches views a summand as choice branches: the summand must begin
// with a communication prefix of the right direction (or be a choice of
// the same kind, which is flattened).
func (p *parser) asBranches(e hexpr.Expr, op tokenKind, at token) ([]hexpr.Branch, error) {
	flatten := func(bs []hexpr.Branch, rest hexpr.Expr) []hexpr.Branch {
		out := make([]hexpr.Branch, len(bs))
		for i, b := range bs {
			out[i] = hexpr.Branch{Comm: b.Comm, Cont: hexpr.Cat(b.Cont, rest)}
		}
		return out
	}
	head, rest := e, hexpr.Eps()
	if s, ok := e.(hexpr.Seq); ok {
		head, rest = s.Left, s.Right
	}
	switch h := head.(type) {
	case hexpr.ExtChoice:
		if op != tokPlus {
			return nil, p.errf(at, "input-guarded summand in an internal choice")
		}
		return flatten(h.Branches, rest), nil
	case hexpr.IntChoice:
		if op != tokOPlus {
			return nil, p.errf(at, "output-guarded summand in an external choice")
		}
		return flatten(h.Branches, rest), nil
	default:
		return nil, p.errf(at, "choice summand must start with a channel action")
	}
}

// seq := atom ('.' atom)*
func (p *parser) seq() (hexpr.Expr, error) {
	first, err := p.atom()
	if err != nil {
		return nil, err
	}
	parts := []hexpr.Expr{first}
	for p.at(tokDot) {
		p.next()
		// allow `a? . mu h. ...` — recursion in tail position of a prefix
		if t := p.peek(); t.kind == tokIdent && t.text == "mu" {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
			break
		}
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		parts = append(parts, a)
	}
	return hexpr.Cat(parts...), nil
}

// atom := '(' expr ')' | 'eps' | 'open' ... | 'enforce' ... | chan action |
// event | variable
func (p *parser) atom() (hexpr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch t.text {
		case "eps":
			p.next()
			return hexpr.Eps(), nil
		case "open":
			return p.openExpr()
		case "enforce":
			return p.enforceExpr()
		}
		p.next()
		switch p.peek().kind {
		case tokQuery:
			p.next()
			if p.cur != nil {
				p.cur.Events[t.text] = append(p.cur.Events[t.text], t.span())
			}
			return hexpr.Ext(hexpr.B(hexpr.In(t.text), hexpr.Eps())), nil
		case tokBang:
			p.next()
			if p.cur != nil {
				p.cur.Events[t.text] = append(p.cur.Events[t.text], t.span())
			}
			return hexpr.IntCh(hexpr.B(hexpr.Out(t.text), hexpr.Eps())), nil
		case tokLParen:
			args, err := p.valueArgs()
			if err != nil {
				return nil, err
			}
			ev := hexpr.Event{Name: t.text, Args: args}
			if p.cur != nil {
				k := ev.String()
				p.cur.Events[k] = append(p.cur.Events[k], t.span())
			}
			return hexpr.Act(ev), nil
		default:
			// bare identifier: recursion variable or 0-ary event; the
			// well-formedness check disambiguates (variables must be bound)
			if p.cur != nil {
				p.cur.Events[t.text] = append(p.cur.Events[t.text], t.span())
			}
			return hexpr.Var{Name: t.text}, nil
		}
	}
	return nil, p.errf(t, "expected an expression, found %s", t)
}

// openExpr := 'open' ident ['with' ident] '{' expr '}'
func (p *parser) openExpr() (hexpr.Expr, error) {
	p.next() // open
	req, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if p.cur != nil {
		if _, seen := p.cur.Opens[req.text]; !seen {
			p.cur.Opens[req.text] = req.span()
		}
	}
	pol := hexpr.NoPolicy
	var polSpan Span
	if t := p.peek(); t.kind == tokIdent && t.text == "with" {
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		pol = p.resolvePolicy(name.text)
		polSpan = name.span()
		if p.cur != nil {
			p.cur.Policies = append(p.cur.Policies,
				NameSpan{Name: name.text, ID: string(pol), Span: polSpan})
		}
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	rb, err := p.expect(tokRBrace)
	if err != nil {
		return nil, err
	}
	if p.cur != nil && pol != hexpr.NoPolicy {
		p.cur.Framings = append(p.cur.Framings,
			FramingSpan{ID: string(pol), Open: polSpan, Close: rb.span()})
	}
	s := hexpr.Session{Req: hexpr.RequestID(req.text), Policy: pol, Body: body}
	if p.cur != nil {
		p.opens = append(p.opens, opening{s: s, tok: req})
	}
	return s, nil
}

// enforceExpr := 'enforce' ident '{' expr '}'
func (p *parser) enforceExpr() (hexpr.Expr, error) {
	p.next() // enforce
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if p.cur != nil {
		ns := NameSpan{Name: name.text, ID: string(p.resolvePolicy(name.text)), Span: name.span()}
		p.cur.Policies = append(p.cur.Policies, ns)
		p.cur.Enforces = append(p.cur.Enforces, ns)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	rb, err := p.expect(tokRBrace)
	if err != nil {
		return nil, err
	}
	pol := p.resolvePolicy(name.text)
	if p.cur != nil && pol != hexpr.NoPolicy {
		p.cur.Framings = append(p.cur.Framings,
			FramingSpan{ID: string(pol), Open: name.span(), Close: rb.span()})
	}
	return hexpr.Frame(pol, body), nil
}

// valueArgs := '(' [value (',' value)*] ')'
func (p *parser) valueArgs() ([]hexpr.Value, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []hexpr.Value
	for !p.at(tokRParen) {
		if len(args) > 0 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	p.next() // ')'
	return args, nil
}

// value := int | ident
func (p *parser) value() (hexpr.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := hexpr.ParseValue(t.text)
		if err != nil {
			return hexpr.Value{}, p.errf(t, "%v", err)
		}
		return v, nil
	case tokIdent:
		p.next()
		return hexpr.Sym(t.text), nil
	}
	return hexpr.Value{}, p.errf(t, "expected a value, found %s", t)
}
