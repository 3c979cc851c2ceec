package hexpr

import (
	"sort"
	"strings"
)

// Expr is a history expression (Definition 1). Expressions are immutable;
// all transformations build new terms. Two expressions denote the same
// process iff their Key strings are equal (Keys are canonical up to the
// structural congruence ε·H ≡ H ≡ H·ε and sorting of choice branches).
type Expr interface {
	// Key returns the canonical, fully parenthesised form of the
	// expression, used for memoisation and equality.
	Key() string
	isExpr()
}

// Nil is the terminated expression ε.
type Nil struct{}

// Var is a recursion variable h.
type Var struct{ Name string }

// Rec is the tail-recursive expression μh.H. Well-formed expressions have
// every occurrence of h guarded by a communication action (see Check).
type Rec struct {
	Name string
	Body Expr
}

// Ev is a security access event α.
type Ev struct{ Event Event }

// Seq is sequential composition H·H′.
type Seq struct{ Left, Right Expr }

// Branch is one summand of a choice: a communication prefix and its
// continuation.
type Branch struct {
	Comm Comm
	Cont Expr
}

// ExtChoice is the external choice Σᵢ aᵢ.Hᵢ, driven by the messages
// received: every branch is guarded by an input action.
type ExtChoice struct{ Branches []Branch }

// IntChoice is the internal choice ⊕ᵢ āᵢ.Hᵢ, resolved by the sender alone:
// every branch is guarded by an output action.
type IntChoice struct{ Branches []Branch }

// Session is the request open_{r,φ} H close_{r,φ}: open a session with the
// service the plan selects for r, enforce policy φ for the whole session,
// interact as H, then close. The body H is the caller's conversation with
// the invoked service.
type Session struct {
	Req    RequestID
	Policy PolicyID
	Body   Expr
}

// Framing is the security framing φ[H]: while H runs, every prefix of the
// whole execution history must respect policy φ.
type Framing struct {
	Policy PolicyID
	Body   Expr
}

// CloseTag is the residual close_{r,φ} left after a Session has fired its
// opening action (rule S-Open leaves H·close_{r,φ}). It only appears in
// run-time terms, never in source expressions.
type CloseTag struct {
	Req    RequestID
	Policy PolicyID
}

// FrameClose is the residual ⌋φ left after a Framing has fired ⌊φ (rule
// P-Open leaves H·⌋φ). It only appears in run-time terms.
type FrameClose struct{ Policy PolicyID }

func (Nil) isExpr()        {}
func (Var) isExpr()        {}
func (Rec) isExpr()        {}
func (Ev) isExpr()         {}
func (Seq) isExpr()        {}
func (ExtChoice) isExpr()  {}
func (IntChoice) isExpr()  {}
func (Session) isExpr()    {}
func (Framing) isExpr()    {}
func (CloseTag) isExpr()   {}
func (FrameClose) isExpr() {}

// Key implementations. Keys are canonical: Seq right-nested with ε units
// removed (guaranteed by the smart constructors), choice branches sorted.

func (Nil) Key() string { return "eps" }

// Var keys carry a sigil so that a variable h and a 0-ary event h have
// distinct canonical forms.
func (v Var) Key() string { return "$" + v.Name }
func (r Rec) Key() string { return "mu " + r.Name + ".(" + r.Body.Key() + ")" }
func (e Ev) Key() string  { return e.Event.String() }
func (s Seq) Key() string { return "(" + s.Left.Key() + " . " + s.Right.Key() + ")" }

func branchesKey(bs []Branch, sep string) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = b.Comm.String() + ".(" + b.Cont.Key() + ")"
	}
	return "(" + strings.Join(parts, " "+sep+" ") + ")"
}

func (c ExtChoice) Key() string { return branchesKey(c.Branches, "+") }
func (c IntChoice) Key() string { return branchesKey(c.Branches, "(+)") }

func (s Session) Key() string {
	return "open[" + string(s.Req) + "," + policyName(s.Policy) + "]{" + s.Body.Key() + "}"
}
func (f Framing) Key() string { return string(f.Policy) + "[" + f.Body.Key() + "]" }
func (c CloseTag) Key() string {
	return "close[" + string(c.Req) + "," + policyName(c.Policy) + "]"
}
func (f FrameClose) Key() string { return "_]" + string(f.Policy) }

// Equal reports whether two expressions are structurally equal up to the
// canonical congruence.
func Equal(a, b Expr) bool { return a.Key() == b.Key() }

// Identical reports whether a and b are the same term, node for node.
// Identical terms have equal keys; unlike Equal, Identical renders none
// and allocates nothing. The parser and the plan engine compare the
// bodies of the sessions that open one request identifier with it.
func Identical(a, b Expr) bool {
	switch x := a.(type) {
	case Nil:
		_, ok := b.(Nil)
		return ok
	case Var:
		y, ok := b.(Var)
		return ok && x == y
	case Rec:
		y, ok := b.(Rec)
		return ok && x.Name == y.Name && Identical(x.Body, y.Body)
	case Ev:
		y, ok := b.(Ev)
		return ok && x.Event.Equal(y.Event)
	case Seq:
		y, ok := b.(Seq)
		return ok && Identical(x.Left, y.Left) && Identical(x.Right, y.Right)
	case ExtChoice:
		y, ok := b.(ExtChoice)
		return ok && identicalBranches(x.Branches, y.Branches)
	case IntChoice:
		y, ok := b.(IntChoice)
		return ok && identicalBranches(x.Branches, y.Branches)
	case Session:
		y, ok := b.(Session)
		return ok && x.Req == y.Req && x.Policy == y.Policy && Identical(x.Body, y.Body)
	case Framing:
		y, ok := b.(Framing)
		return ok && x.Policy == y.Policy && Identical(x.Body, y.Body)
	case CloseTag:
		y, ok := b.(CloseTag)
		return ok && x == y
	case FrameClose:
		y, ok := b.(FrameClose)
		return ok && x == y
	}
	return false
}

func identicalBranches(a, b []Branch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Comm != b[i].Comm || !Identical(a[i].Cont, b[i].Cont) {
			return false
		}
	}
	return true
}

// IsNil reports whether e is the terminated expression ε.
func IsNil(e Expr) bool {
	_, ok := e.(Nil)
	return ok
}

// --- smart constructors -------------------------------------------------

// Eps is the terminated expression ε.
func Eps() Expr { return Nil{} }

// V is the recursion variable h.
func V(name string) Expr { return Var{Name: name} }

// Mu builds μh.H.
func Mu(name string, body Expr) Expr { return Rec{Name: name, Body: body} }

// Act builds the event expression α.
func Act(e Event) Expr { return Ev{Event: e} }

// Cat builds the sequential composition of the given expressions,
// normalising to a canonical form: ε units vanish, nesting is to the
// right, and a choice followed by a continuation distributes the
// continuation into its branches ((Σᵢ aᵢ.Hᵢ)·H ≡ Σᵢ aᵢ.(Hᵢ·H), and
// likewise for ⊕) — so prefixes have a single representation. Recursions,
// events, sessions and framings on the left keep the Seq node.
func Cat(es ...Expr) Expr {
	var flat []Expr
	var collect func(Expr)
	collect = func(e Expr) {
		switch t := e.(type) {
		case Nil:
		case Seq:
			collect(t.Left)
			collect(t.Right)
		default:
			flat = append(flat, e)
		}
	}
	for _, e := range es {
		collect(e)
	}
	if len(flat) == 0 {
		return Nil{}
	}
	out := flat[len(flat)-1]
	for i := len(flat) - 2; i >= 0; i-- {
		switch t := flat[i].(type) {
		case ExtChoice:
			out = Ext(distribute(t.Branches, out)...)
		case IntChoice:
			out = IntCh(distribute(t.Branches, out)...)
		default:
			out = Seq{Left: flat[i], Right: out}
		}
	}
	return out
}

func distribute(bs []Branch, rest Expr) []Branch {
	out := make([]Branch, len(bs))
	for i, b := range bs {
		out[i] = Branch{Comm: b.Comm, Cont: Cat(b.Cont, rest)}
	}
	return out
}

func sortBranches(bs []Branch) []Branch {
	out := make([]Branch, len(bs))
	copy(out, bs)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Comm.Channel != out[j].Comm.Channel {
			return out[i].Comm.Channel < out[j].Comm.Channel
		}
		return out[i].Cont.Key() < out[j].Cont.Key()
	})
	return out
}

// Ext builds the external choice Σᵢ aᵢ.Hᵢ. All guards must be inputs; this
// is checked by Check, not here.
func Ext(bs ...Branch) Expr {
	if len(bs) == 0 {
		return Nil{}
	}
	return ExtChoice{Branches: sortBranches(bs)}
}

// Int builds the internal choice ⊕ᵢ āᵢ.Hᵢ. All guards must be outputs; this
// is checked by Check, not here.
func IntCh(bs ...Branch) Expr {
	if len(bs) == 0 {
		return Nil{}
	}
	return IntChoice{Branches: sortBranches(bs)}
}

// Recv builds the single-branch external choice a.H.
func RecvThen(channel string, cont Expr) Expr {
	return Ext(Branch{Comm: In(channel), Cont: cont})
}

// SendThen builds the single-branch internal choice ā.H.
func SendThen(channel string, cont Expr) Expr {
	return IntCh(Branch{Comm: Out(channel), Cont: cont})
}

// Open builds the request open_{r,φ} body close_{r,φ}.
func Open(r RequestID, p PolicyID, body Expr) Expr {
	return Session{Req: r, Policy: p, Body: body}
}

// Frame builds the security framing φ[body].
func Frame(p PolicyID, body Expr) Expr {
	return Framing{Policy: p, Body: body}
}

// B is a convenience branch constructor.
func B(c Comm, cont Expr) Branch { return Branch{Comm: c, Cont: cont} }
