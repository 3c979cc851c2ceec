package lambda

import (
	"fmt"
	"math/rand"

	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/network"
	"susc/internal/policy"
)

// ServiceRepo publishes λ-service programs at locations — the λ-level
// counterpart of the effect-level repository. Services replicate: each
// session opening evaluates a fresh copy of the program.
type ServiceRepo map[hexpr.Location]Term

// Effects extracts the history expression of every published service,
// giving the effect-level repository the static analyses operate on. A
// service that fails to type-check aborts the extraction.
func (r ServiceRepo) Effects() (network.Repository, error) {
	out := network.Repository{}
	for loc, term := range r {
		_, eff, err := InferClosed(term)
		if err != nil {
			return nil, fmt.Errorf("lambda: service at %s: %w", loc, err)
		}
		out[loc] = eff
	}
	return out, nil
}

// NetOptions configures RunNetwork.
type NetOptions struct {
	// Fuel bounds the total number of evaluation steps (default 100000).
	Fuel int
	// Rand drives the sender's choices; nil picks the first branch.
	Rand *rand.Rand
	// Monitored aborts the run at the first history item violating an
	// active policy (the run-time monitor the paper's analysis removes).
	Monitored bool
	// Table supplies the policies for the monitor (required when
	// Monitored).
	Table *policy.Table
}

// netNode is a run-time session tree of λ-parties, mirroring the network
// semantics: a leaf is a party's evaluation state; a pair is an open
// session, remembering how the initiator continues once it closes.
type netNode interface{ isNetNode() }

type netLeaf struct {
	loc hexpr.Location
	ev  *evaluator
	o   *outcome
}

type netPair struct {
	initiator netNode // the caller side, evaluating the request body
	svc       netNode
	policy    hexpr.PolicyID
	callerLoc hexpr.Location
	callerEv  *evaluator
	resume    func(Value) *outcome // the caller's continuation after close
}

func (*netLeaf) isNetNode() {}
func (*netPair) isNetNode() {}

// RunNetwork runs a λ-client against a repository of λ-services under a
// plan: service requests open nested sessions exactly as in Definition 2
// (rule Open spawns a fresh copy of the planned service; rule Close
// terminates the service side, logging the ⌋φ of its still-open framings
// via its frame stack — the Φ of the paper — and the session policy's ⌋φ;
// rule Synch is the one EvalSession runs).
//
// This is the executable end of the paper's programme at the program
// level: a plan validated on the *extracted effects* (verify.CheckPlan on
// ServiceRepo.Effects()) runs here with the monitor off and can neither
// violate a policy nor get stuck.
func RunNetwork(client Term, loc hexpr.Location, repo ServiceRepo,
	plan network.Plan, opts NetOptions) (*NetResult, error) {

	fuel := opts.Fuel
	if fuel == 0 {
		fuel = 100000
	}
	sess := &session{fuel: fuel}
	var mon *history.Monitor
	if opts.Monitored {
		if opts.Table == nil {
			return nil, fmt.Errorf("lambda: monitored run needs a policy table")
		}
		mon = history.NewMonitor(opts.Table)
	}
	ev := &evaluator{sess: sess}
	var root netNode = &netLeaf{loc: loc, ev: ev, o: ev.eval(client, valueK)}
	res := &NetResult{}
	consumed := 0 // history items already fed to the monitor

	feedMonitor := func() (hexpr.PolicyID, error) {
		if mon == nil {
			return hexpr.NoPolicy, nil
		}
		for consumed < len(sess.hist) {
			if err := mon.Append(sess.hist[consumed]); err != nil {
				if verr, ok := err.(*history.ViolationError); ok {
					return verr.Policy, nil
				}
				return hexpr.NoPolicy, err
			}
			consumed++
		}
		return hexpr.NoPolicy, nil
	}

	for {
		if bad, err := feedMonitor(); err != nil {
			return nil, err
		} else if bad != hexpr.NoPolicy {
			res.Violation = bad
			return res.finish(SessionAborted, sess)
		}
		// terminal and error states
		if leaf, ok := root.(*netLeaf); ok {
			if leaf.o.err != nil {
				return res.fail(leaf.o.err, sess)
			}
			if leaf.o.comm == nil && leaf.o.req == nil {
				res.ClientValue = leaf.o.val
				return res.finish(SessionCompleted, sess)
			}
		}
		progressed, err := step(&root, sess, plan, repo, opts.Rand, res)
		if err != nil {
			return res.fail(err, sess)
		}
		if !progressed {
			return res.finish(SessionStuck, sess)
		}
	}
}

// step makes one unit of progress somewhere in the tree: an open, a close,
// or a synchronisation. It reports false when nothing can move.
func step(node *netNode, sess *session, plan network.Plan, repo ServiceRepo,
	rnd *rand.Rand, res *NetResult) (bool, error) {

	switch n := (*node).(type) {
	case *netLeaf:
		if n.o.err != nil {
			return false, n.o.err
		}
		if n.o.req != nil {
			// rule Open
			loc, ok := plan[n.o.req.req]
			if !ok {
				return false, nil // unplanned request: stuck
			}
			svcTerm, ok := repo[loc]
			if !ok {
				return false, nil // dangling location: stuck
			}
			if n.o.req.policy != hexpr.NoPolicy {
				sess.hist = append(sess.hist, history.OpenItem(n.o.req.policy))
			}
			bodyEv := &evaluator{sess: sess, frames: n.ev.frames}
			svcEv := &evaluator{sess: sess}
			req := n.o.req
			*node = &netPair{
				initiator: &netLeaf{loc: n.loc, ev: bodyEv, o: bodyEv.eval(req.body, valueK)},
				svc:       &netLeaf{loc: loc, ev: svcEv, o: svcEv.eval(svcTerm, valueK)},
				policy:    req.policy,
				callerLoc: n.loc,
				callerEv:  n.ev,
				resume:    req.resume,
			}
			return true, nil
		}
		return false, nil
	case *netPair:
		// rule Close: the initiator side finished its body; as in the paper
		// the rule needs both sides to be leaves, so a service with its own
		// open nested session must close it first.
		if leaf, ok := n.initiator.(*netLeaf); ok && leaf.o.err == nil &&
			leaf.o.comm == nil && leaf.o.req == nil {
			if svcLeaf, ok := n.svc.(*netLeaf); ok {
				// Φ: close the killed service side's dangling framings
				for i := len(svcLeaf.ev.frames) - 1; i >= 0; i-- {
					sess.hist = append(sess.hist, history.CloseItem(svcLeaf.ev.frames[i]))
				}
				if n.policy != hexpr.NoPolicy {
					sess.hist = append(sess.hist, history.CloseItem(n.policy))
				}
				*node = &netLeaf{loc: n.callerLoc, ev: n.callerEv, o: n.resume(leaf.o.val)}
				return true, nil
			}
		}
		// rule Session: progress inside either side
		if ok, err := step(&n.initiator, sess, plan, repo, rnd, res); err != nil || ok {
			return ok, err
		}
		if ok, err := step(&n.svc, sess, plan, repo, rnd, res); err != nil || ok {
			return ok, err
		}
		// rule Synch: both sides are leaves paused on complementary comms
		il, iok := n.initiator.(*netLeaf)
		sl, sok := n.svc.(*netLeaf)
		return iok && sok && synch(&il.o, &sl.o, rnd, res), nil
	}
	return false, fmt.Errorf("lambda: unknown network node %T", *node)
}
