package hexpr

import "fmt"

// CheckKind classifies a well-formedness violation, so tools (the linter
// in particular) can react to the class of failure without matching on
// the human-readable reason.
type CheckKind int

const (
	// IllFormed is the catch-all class.
	IllFormed CheckKind = iota
	// FreeVariable: the expression has free recursion variables.
	FreeVariable
	// UnguardedRecursion: a recursion variable occurs with no
	// communication prefix between it and its binder (μh.h).
	UnguardedRecursion
	// NonTailRecursion: a recursion variable occurs outside tail position.
	NonTailRecursion
	// EmptyChoice: a choice with no branches.
	EmptyChoice
	// MixedGuards: an output guarding an external choice, or an input
	// guarding an internal one.
	MixedGuards
	// DuplicateRequest: one run may open the same request twice.
	DuplicateRequest
	// Residual: a run-time residual (close_{r,φ} or ⌋φ) in a source term.
	Residual
)

// CheckError describes a well-formedness violation of a history expression.
type CheckError struct {
	Expr   Expr
	Kind   CheckKind
	Reason string
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("hexpr: ill-formed expression %s: %s", e.Expr.Key(), e.Reason)
}

// Check verifies the syntactic restrictions Definition 1 places on source
// history expressions:
//
//   - the expression is closed;
//   - recursion is tail recursion, guarded by communication actions;
//   - internal choices are guarded by outputs, external choices by inputs;
//   - no run opens one request identifier twice (occurrences in exclusive
//     choice branches are allowed);
//   - the run-time-only residuals close_{r,φ} and ⌋φ do not occur.
//
// Check sees one expression. The rule across expressions — every session
// that opens an identifier, in a client and in the repository it plans
// against, opens it with one framing policy and one body — is the
// parser's (internal/parser), where declarations are registered.
//
// These restrictions are what make the contract projection finite-state
// (see internal/contract) and hence compliance decidable.
func Check(e Expr) error {
	if !Closed(e) {
		return &CheckError{Expr: e, Kind: FreeVariable, Reason: "free recursion variables"}
	}
	if err := checkNode(e, e); err != nil {
		return err
	}
	if r, dup := duplicateRequestOnPath(e); dup {
		return &CheckError{Expr: e, Kind: DuplicateRequest, Reason: fmt.Sprintf("duplicate request identifier %q", r)}
	}
	return nil
}

// duplicateRequestOnPath finds a request identifier that two sessions of
// the same run would share. Occurrences in different branches of a choice
// are exclusive alternatives and therefore allowed (the canonicalisation
// of Cat duplicates continuations into branches); sequential or nested
// occurrences are rejected.
func duplicateRequestOnPath(e Expr) (RequestID, bool) {
	var conflict RequestID
	var found bool
	// reqs returns the identifiers some run of e may open.
	var reqs func(Expr) map[RequestID]bool
	merge := func(a, b map[RequestID]bool) map[RequestID]bool {
		if len(a) == 0 {
			return b
		}
		for r := range b {
			if a[r] && !found {
				conflict, found = r, true
			}
			a[r] = true
		}
		return a
	}
	union := func(a, b map[RequestID]bool) map[RequestID]bool {
		if len(a) == 0 {
			return b
		}
		for r := range b {
			a[r] = true
		}
		return a
	}
	reqs = func(e Expr) map[RequestID]bool {
		switch t := e.(type) {
		case Seq:
			return merge(reqs(t.Left), reqs(t.Right))
		case Rec:
			return reqs(t.Body)
		case ExtChoice:
			var out map[RequestID]bool
			for _, b := range t.Branches {
				out = union(out, reqs(b.Cont))
			}
			return out
		case IntChoice:
			var out map[RequestID]bool
			for _, b := range t.Branches {
				out = union(out, reqs(b.Cont))
			}
			return out
		case Framing:
			return reqs(t.Body)
		case Session:
			inner := reqs(t.Body)
			if inner[t.Req] && !found {
				conflict, found = t.Req, true
			}
			out := map[RequestID]bool{t.Req: true}
			return union(out, inner)
		default:
			return nil
		}
	}
	reqs(e)
	return conflict, found
}

func checkNode(root, e Expr) error {
	switch t := e.(type) {
	case Nil, Var, Ev:
		return nil
	case CloseTag:
		return &CheckError{Expr: root, Kind: Residual, Reason: "run-time residual close_{r,φ} in source term"}
	case FrameClose:
		return &CheckError{Expr: root, Kind: Residual, Reason: "run-time residual ⌋φ in source term"}
	case Seq:
		if err := checkNode(root, t.Left); err != nil {
			return err
		}
		return checkNode(root, t.Right)
	case ExtChoice:
		if len(t.Branches) == 0 {
			return &CheckError{Expr: root, Kind: EmptyChoice, Reason: "empty external choice"}
		}
		for _, b := range t.Branches {
			if b.Comm.IsSend() {
				return &CheckError{Expr: root, Kind: MixedGuards, Reason: fmt.Sprintf("output %s guards an external choice", b.Comm)}
			}
			if err := checkNode(root, b.Cont); err != nil {
				return err
			}
		}
		return nil
	case IntChoice:
		if len(t.Branches) == 0 {
			return &CheckError{Expr: root, Kind: EmptyChoice, Reason: "empty internal choice"}
		}
		for _, b := range t.Branches {
			if !b.Comm.IsSend() {
				return &CheckError{Expr: root, Kind: MixedGuards, Reason: fmt.Sprintf("input %s guards an internal choice", b.Comm)}
			}
			if err := checkNode(root, b.Cont); err != nil {
				return err
			}
		}
		return nil
	case Session:
		return checkNode(root, t.Body)
	case Framing:
		return checkNode(root, t.Body)
	case Rec:
		if err := checkRec(root, t); err != nil {
			return err
		}
		return checkNode(root, t.Body)
	}
	return &CheckError{Expr: root, Reason: "unknown node"}
}

// checkRec verifies that in μh.H every occurrence of h is (a) guarded by at
// least one communication prefix and (b) in tail position.
func checkRec(root Expr, r Rec) error {
	var visit func(e Expr, guarded, tail bool) error
	visit = func(e Expr, guarded, tail bool) error {
		switch t := e.(type) {
		case Var:
			if t.Name != r.Name {
				return nil
			}
			if !guarded {
				return &CheckError{Expr: root, Kind: UnguardedRecursion, Reason: fmt.Sprintf("unguarded recursion variable %s", r.Name)}
			}
			if !tail {
				return &CheckError{Expr: root, Kind: NonTailRecursion, Reason: fmt.Sprintf("non-tail occurrence of recursion variable %s", r.Name)}
			}
			return nil
		case Rec:
			if t.Name == r.Name {
				return nil // rebound
			}
			// A nested recursion body is its own tail context.
			return visit(t.Body, guarded, tail)
		case Seq:
			if err := visit(t.Left, guarded, false); err != nil {
				return err
			}
			// Whatever follows a subterm that necessarily performs a
			// communication before terminating is itself guarded.
			return visit(t.Right, guarded || alwaysCommunicates(t.Left), tail)
		case ExtChoice:
			for _, b := range t.Branches {
				if err := visit(b.Cont, true, tail); err != nil {
					return err
				}
			}
			return nil
		case IntChoice:
			for _, b := range t.Branches {
				if err := visit(b.Cont, true, tail); err != nil {
					return err
				}
			}
			return nil
		case Session:
			// The session close follows the body: not a tail context.
			return visit(t.Body, guarded, false)
		case Framing:
			// The frame close follows the body: not a tail context.
			return visit(t.Body, guarded, false)
		default:
			return nil
		}
	}
	return visit(r.Body, false, true)
}

// alwaysCommunicates reports whether every run of e performs at least one
// communication action before terminating — the cases relevant as guards:
// choices fire a communication immediately, and well-formed recursions have
// communication-guarded bodies.
func alwaysCommunicates(e Expr) bool {
	switch t := e.(type) {
	case ExtChoice, IntChoice:
		return true
	case Rec:
		return alwaysCommunicates(t.Body)
	case Seq:
		return alwaysCommunicates(t.Left) || alwaysCommunicates(t.Right)
	default:
		return false
	}
}
