package verify

import (
	"fmt"
	"strings"

	"susc/internal/hexpr"
	"susc/internal/network"
)

// PlannedRequest describes one request of the composed service under a
// plan: the request identifier, its body H₁, and the service the plan
// binds it to.
type PlannedRequest struct {
	Req     hexpr.RequestID
	Policy  hexpr.PolicyID
	Body    hexpr.Expr
	Loc     hexpr.Location
	Service hexpr.Expr
	// Bound reports whether the plan binds the request to a location
	// present in the repository.
	Bound bool
}

// PlannedRequests collects every request of the composed service: the
// requests of the client plus, recursively, the requests of every service
// the plan selects, each once, with the first session that opens it.
// Every session that opens a request identifier opens it with one framing
// policy and one body (Definition 1 makes identifiers unique; the parser
// checks the rule across a client and its repository, and the plan
// engine refuses a world built in code that breaks it), so which session
// comes first does not matter: deduplication only folds the identical
// copies of a session and the cycles of services invoking each other,
// which keep the composed behaviour infinite but the request set finite.
func PlannedRequests(repo network.Repository, client hexpr.Expr, plan network.Plan) []PlannedRequest {
	var out []PlannedRequest
	seen := map[hexpr.RequestID]bool{}
	var collect func(e hexpr.Expr)
	collect = func(e hexpr.Expr) {
		var sessions []hexpr.Session
		hexpr.Walk(e, func(x hexpr.Expr) {
			if s, ok := x.(hexpr.Session); ok {
				sessions = append(sessions, s)
			}
		})
		for _, s := range sessions {
			if seen[s.Req] {
				continue
			}
			seen[s.Req] = true
			pr := PlannedRequest{Req: s.Req, Policy: s.Policy, Body: s.Body}
			loc, ok := plan[s.Req]
			if ok {
				pr.Loc = loc
				if svc, ok := repo[loc]; ok {
					pr.Service = svc
					pr.Bound = true
				}
			}
			out = append(out, pr)
			if pr.Bound {
				collect(pr.Service)
			}
		}
	}
	collect(client)
	return out
}

// UnboundRequests returns the requests of the composition the plan fails
// to bind to a repository service.
func UnboundRequests(repo network.Repository, client hexpr.Expr, plan network.Plan) []hexpr.RequestID {
	var out []hexpr.RequestID
	for _, pr := range PlannedRequests(repo, client, plan) {
		if !pr.Bound {
			out = append(out, pr.Req)
		}
	}
	return out
}

// ClientNode is the synthetic call-graph node standing for the client in
// CallCycleFunc (the NUL prefix keeps it disjoint from repository
// locations).
const ClientNode = hexpr.Location("\x00client")

// CallCycle detects a cycle in the planned service call graph reachable
// from the client: locations are nodes, and a location ℓ has an edge to
// plan[r] for every request r its service makes. It returns one cyclic
// path of locations (first element repeated at the end) or nil. The check
// is a static over-approximation: a cycle through dead code is still
// reported.
func CallCycle(repo network.Repository, client hexpr.Expr, plan network.Plan) []hexpr.Location {
	return CallCycleFunc(func(n hexpr.Location) []hexpr.Location {
		var e hexpr.Expr
		if n == ClientNode {
			e = client
		} else {
			var ok bool
			e, ok = repo[n]
			if !ok {
				return nil
			}
		}
		var out []hexpr.Location
		for _, r := range hexpr.Requests(e) {
			if l, ok := plan[r]; ok {
				out = append(out, l)
			}
		}
		return out
	})
}

// CallCycleFunc is CallCycle over an abstract successor function: the DFS
// starts at ClientNode and follows succ edges. Callers that precompute the
// per-location request lists (the fused synthesis engine) supply a succ
// closure over the precomputation instead of re-walking expressions per
// plan.
func CallCycleFunc(succ func(hexpr.Location) []hexpr.Location) []hexpr.Location {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[hexpr.Location]int{}
	var stack []hexpr.Location
	var dfs func(n hexpr.Location) []hexpr.Location
	dfs = func(n hexpr.Location) []hexpr.Location {
		color[n] = grey
		stack = append(stack, n)
		for _, m := range succ(n) {
			switch color[m] {
			case grey:
				// extract the cycle from the stack
				var cyc []hexpr.Location
				for i := len(stack) - 1; i >= 0; i-- {
					cyc = append([]hexpr.Location{stack[i]}, cyc...)
					if stack[i] == m {
						break
					}
				}
				return append(cyc, m)
			case white:
				if cyc := dfs(m); cyc != nil {
					return cyc
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return nil
	}
	return dfs(ClientNode)
}

// LocPath renders a location path the way cycle witnesses print it.
func LocPath(locs []hexpr.Location) string {
	parts := make([]string, len(locs))
	for i, l := range locs {
		parts[i] = string(l)
	}
	return strings.Join(parts, " -> ")
}

// String renders the planned request.
func (pr PlannedRequest) String() string {
	if !pr.Bound {
		return fmt.Sprintf("%s -> (unbound)", pr.Req)
	}
	return fmt.Sprintf("%s -> %s", pr.Req, pr.Loc)
}
