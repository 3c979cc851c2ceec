package lambda

import (
	"math/rand"

	"susc/internal/hexpr"
	"susc/internal/history"
)

// SessionStatus classifies how a two-party session evaluation ended.
type SessionStatus int

const (
	// SessionCompleted: the client program reduced to a value (the paper's
	// notion of success — the server need not terminate).
	SessionCompleted SessionStatus = iota
	// SessionStuck: both sides paused on communications that cannot
	// synchronise — exactly the run-time failure compliance rules out.
	SessionStuck
	// SessionOutOfFuel: the step budget ran out.
	SessionOutOfFuel
	// SessionAborted: the run-time monitor stopped the run on a policy
	// violation (network runs only).
	SessionAborted
)

func (s SessionStatus) String() string {
	switch s {
	case SessionCompleted:
		return "completed"
	case SessionStuck:
		return "stuck"
	case SessionOutOfFuel:
		return "out-of-fuel"
	case SessionAborted:
		return "security-abort"
	}
	return "unknown"
}

// NetResult is the outcome of a run: of a two-party session (EvalSession)
// or of a λ-network (RunNetwork).
type NetResult struct {
	Status SessionStatus
	// ClientValue is the client program's result (Completed only).
	ClientValue Value
	// Hist is the component history: every party of every (nested) session
	// of the client logs its events and framing actions into it, as in the
	// paper's network semantics.
	Hist history.History
	// Synchronised lists the synchronised channels in order.
	Synchronised []string
	// Violation is the policy the monitor tripped on (SessionAborted only).
	Violation hexpr.PolicyID
}

// finish ends the run with status st and the history of s.
func (r *NetResult) finish(st SessionStatus, s *session) (*NetResult, error) {
	r.Status, r.Hist = st, s.hist
	return r, nil
}

// fail ends the run on an evaluation error: running out of fuel is a
// status, any other error is returned.
func (r *NetResult) fail(err error, s *session) (*NetResult, error) {
	if isFuel(err) {
		return r.finish(SessionOutOfFuel, s)
	}
	return nil, err
}

// EvalSession runs a client and a server λ-program as the two parties of a
// session: non-communication steps reduce locally (call-by-value), each
// side running to its next communication point before the other is
// scheduled, and select/branch pairs synchronise by rule Synch, the rule
// RunNetwork uses. Service requests (open) are not supported inside a
// session evaluation; use RunNetwork for nested sessions. The result's
// Violation is always empty: no monitor runs.
//
// Each round looks at the client first: its error, its request, and
// whether it has finished, which completes the session whatever the
// server is doing (as rule Close ends a session on the client side
// alone). Only then come the server's error, its request and rule Synch:
// the order of RunNetwork's step.
//
// EvalSession is the run-time ground truth for compliance at the λ level:
// when the inferred effects of the two programs are compliant, no
// scheduling of EvalSession ever returns SessionStuck (property-tested).
func EvalSession(client, server Term, fuel int, rnd *rand.Rand) (*NetResult, error) {
	sess := &session{fuel: fuel}
	co := (&evaluator{sess: sess}).eval(client, valueK)
	so := (&evaluator{sess: sess}).eval(server, valueK)
	res := &NetResult{}
	nested := func() error {
		return &EvalError{Term: client,
			Msg: "nested service requests are not supported in session evaluation (use RunNetwork)"}
	}
	for {
		if co.err != nil {
			return res.fail(co.err, sess)
		}
		if co.req != nil {
			return nil, nested()
		}
		// the client finished: success whatever the server's state
		if co.comm == nil {
			res.ClientValue = co.val
			return res.finish(SessionCompleted, sess)
		}
		if so.err != nil {
			return res.fail(so.err, sess)
		}
		if so.req != nil {
			return nil, nested()
		}
		if !synch(&co, &so, rnd, res) {
			return res.finish(SessionStuck, sess)
		}
	}
}

// synch is rule Synch: two parties paused on complementary communications
// synchronise, the sender picking the channel (via rnd; the first branch
// when rnd is nil) and the receiver offering it. Both resume in place, the
// sender first (they share one history and one fuel counter), and the
// channel is appended to res. synch reports false when the rule cannot
// fire: a side is not paused on a communication, both send or both
// receive, or the receiver does not offer the channel.
func synch(a, b **outcome, rnd *rand.Rand, res *NetResult) bool {
	sender, receiver := a, b
	if (*b).comm != nil && (*b).comm.send {
		sender, receiver = b, a
	}
	sc, rc := (*sender).comm, (*receiver).comm
	if sc == nil || rc == nil || !sc.send || rc.send {
		return false
	}
	idx := 0
	if rnd != nil {
		idx = rnd.Intn(len(sc.branches))
	}
	ch := sc.branches[idx].Channel
	rBranch, ok := findBranch(rc.branches, ch)
	if !ok {
		return false
	}
	res.Synchronised = append(res.Synchronised, ch)
	*sender = sc.resume(sc.branches[idx].Body)
	*receiver = rc.resume(rBranch.Body)
	return true
}

func findBranch(bs []CommBranch, ch string) (CommBranch, bool) {
	for _, b := range bs {
		if b.Channel == ch {
			return b, true
		}
	}
	return CommBranch{}, false
}
