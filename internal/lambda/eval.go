package lambda

import (
	"errors"
	"fmt"

	"susc/internal/hexpr"
	"susc/internal/history"
)

// EvalError reports an evaluation failure.
type EvalError struct {
	Term Term
	Msg  string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("lambda: eval: %s: in %s", e.Msg, e.Term)
}

// outOfFuel is the message of the error an evaluation that exhausts its
// fuel stops with; EvalSession and RunNetwork report it as
// SessionOutOfFuel.
const outOfFuel = "out of fuel"

func isFuel(err error) bool {
	var e *EvalError
	return errors.As(err, &e) && e.Msg == outOfFuel
}

// Value is an evaluation result: Unit, IntLit, SymLit, Abs or RecFun
// (closures are realised by substitution, so closed abstractions are
// values).
type Value = Term

// Eval runs a closed, communication-free term under call-by-value,
// recording the history (events and framing actions) it produces. It uses
// the evaluator of EvalSession and RunNetwork with no partner: a term that
// reaches a select, branch or open needs a session partner, and Eval
// reports the one it paused at as an error. The fuel bounds the number of
// evaluation steps, so diverging recursions fail rather than hang; the
// error names the term no fuel was left to evaluate.
//
// Eval is the ground truth for the effect-soundness tests: the recorded
// history of a terminating run is always a trace of the inferred effect.
func Eval(t Term, fuel int) (Value, history.History, error) {
	sess := &session{fuel: fuel}
	o := (&evaluator{sess: sess}).eval(t, valueK)
	var paused Term
	switch {
	case o.err != nil:
		return nil, nil, o.err
	case o.req != nil:
		paused = Request{Req: o.req.req, Policy: o.req.policy, Body: o.req.body}
	case o.comm == nil:
		return o.val, sess.hist, nil
	case o.comm.send:
		paused = Select{Branches: o.comm.branches}
	default:
		paused = Branch{Branches: o.comm.branches}
	}
	return nil, nil, &EvalError{Term: paused, Msg: "communication requires a session partner"}
}

// outcome is the result of evaluating one side: a value, an error, or a
// pause — at a communication, or at a service request (handled only by the
// network runtime).
type outcome struct {
	val  Value
	err  error
	comm *pausedComm
	req  *pausedReq
}

// pausedComm is a side blocked on select (send=true) or branch; resume
// continues evaluation with the chosen branch body.
type pausedComm struct {
	send     bool
	branches []CommBranch
	resume   func(Term) *outcome
}

// pausedReq is a side blocked on a service request open_{r,φ}: the network
// runtime spawns the service, evaluates body in the session, and calls
// resume with the body's value once the session closes.
type pausedReq struct {
	req    hexpr.RequestID
	policy hexpr.PolicyID
	body   Term
	resume func(Value) *outcome
}

func valueK(v Value) *outcome { return &outcome{val: v} }

// session holds the shared fuel and history of an evaluation (one per
// network component; both parties of EvalSession share one).
type session struct {
	fuel int
	hist history.History
}

// evaluator is one party's CPS evaluation state: it shares the component
// session (fuel, history) and tracks its own stack of open Enforce frames,
// so the network runtime can close them (the Φ of rule Close) when the
// party is terminated mid-frame.
type evaluator struct {
	sess   *session
	frames []hexpr.PolicyID
}

// eval is a CPS evaluator: it reduces t and passes the value to k; when
// the redex is a communication or a service request, it returns a pause
// whose resume re-enters evaluation with the same continuation.
func (e *evaluator) eval(t Term, k func(Value) *outcome) *outcome {
	s := e.sess
	if s.fuel <= 0 {
		return &outcome{err: &EvalError{Term: t, Msg: outOfFuel}}
	}
	s.fuel--
	switch x := t.(type) {
	case Unit, IntLit, SymLit, Abs, RecFun:
		return k(t)
	case Var:
		return &outcome{err: &EvalError{Term: t, Msg: fmt.Sprintf("unbound variable %q", x.Name)}}
	case Fire:
		s.hist = append(s.hist, history.EventItem(x.Event))
		return k(Unit{})
	case Seq:
		return e.eval(x.First, func(Value) *outcome {
			return e.eval(x.Then, k)
		})
	case Let:
		return e.eval(x.Bind, func(v Value) *outcome {
			return e.eval(substTerm(x.Body, x.Name, v), k)
		})
	case Enforce:
		if x.Policy != hexpr.NoPolicy {
			s.hist = append(s.hist, history.OpenItem(x.Policy))
			e.frames = append(e.frames, x.Policy)
		}
		return e.eval(x.Body, func(v Value) *outcome {
			if x.Policy != hexpr.NoPolicy {
				s.hist = append(s.hist, history.CloseItem(x.Policy))
				e.frames = e.frames[:len(e.frames)-1]
			}
			return k(v)
		})
	case App:
		return e.eval(x.Fn, func(fv Value) *outcome {
			return e.eval(x.Arg, func(av Value) *outcome {
				switch fn := fv.(type) {
				case Abs:
					return e.eval(substTerm(fn.Body, fn.Param, av), k)
				case RecFun:
					body := substTerm(fn.Body, fn.Param, av)
					body = substTerm(body, fn.Name, fn)
					return e.eval(body, k)
				default:
					return &outcome{err: &EvalError{Term: t, Msg: fmt.Sprintf("applying non-function %s", fv)}}
				}
			})
		})
	case Select:
		return &outcome{comm: &pausedComm{
			send:     true,
			branches: x.Branches,
			resume:   func(body Term) *outcome { return e.eval(body, k) },
		}}
	case Branch:
		return &outcome{comm: &pausedComm{
			send:     false,
			branches: x.Branches,
			resume:   func(body Term) *outcome { return e.eval(body, k) },
		}}
	case Request:
		return &outcome{req: &pausedReq{
			req:    x.Req,
			policy: x.Policy,
			body:   x.Body,
			resume: k,
		}}
	}
	return &outcome{err: &EvalError{Term: t, Msg: "unknown term"}}
}

// substTerm substitutes a value for a variable, capture-avoidingly. Values
// substituted are closed, so no renaming is needed.
func substTerm(t Term, name string, v Value) Term {
	switch x := t.(type) {
	case Var:
		if x.Name == name {
			return v
		}
		return t
	case Unit, IntLit, SymLit, Fire:
		return t
	case Abs:
		if x.Param == name {
			return t
		}
		return Abs{Param: x.Param, ParamType: x.ParamType, Body: substTerm(x.Body, name, v)}
	case RecFun:
		if x.Name == name || x.Param == name {
			return t
		}
		return RecFun{Name: x.Name, Param: x.Param, ParamType: x.ParamType,
			Result: x.Result, Body: substTerm(x.Body, name, v)}
	case App:
		return App{Fn: substTerm(x.Fn, name, v), Arg: substTerm(x.Arg, name, v)}
	case Seq:
		return Seq{First: substTerm(x.First, name, v), Then: substTerm(x.Then, name, v)}
	case Let:
		bind := substTerm(x.Bind, name, v)
		if x.Name == name {
			return Let{Name: x.Name, Bind: bind, Body: x.Body}
		}
		return Let{Name: x.Name, Bind: bind, Body: substTerm(x.Body, name, v)}
	case Enforce:
		return Enforce{Policy: x.Policy, Body: substTerm(x.Body, name, v)}
	case Request:
		return Request{Req: x.Req, Policy: x.Policy, Body: substTerm(x.Body, name, v)}
	case Select:
		return Select{Branches: substBranches(x.Branches, name, v)}
	case Branch:
		return Branch{Branches: substBranches(x.Branches, name, v)}
	}
	return t
}

func substBranches(bs []CommBranch, name string, v Value) []CommBranch {
	out := make([]CommBranch, len(bs))
	for i, b := range bs {
		out[i] = CommBranch{Channel: b.Channel, Body: substTerm(b.Body, name, v)}
	}
	return out
}
