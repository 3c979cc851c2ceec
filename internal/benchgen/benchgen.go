// Package benchgen builds the parameterized workloads of the benchmark
// harness: repositories with a scalable number of hotels, contracts of
// controlled depth and width, event chains with nested framings, and
// λ-programs of controlled size. Benchmarks (bench_test.go) and the
// experiment tables (cmd/experiments) share these generators.
package benchgen

import (
	"fmt"
	"sort"
	"strings"

	"susc/internal/hexpr"
	"susc/internal/lambda"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/policy"
)

// HotelWorld is a scaled-up variant of the paper's §2 scenario.
type HotelWorld struct {
	Repo   network.Repository
	Table  *policy.Table
	Client hexpr.Expr
	Loc    hexpr.Location
	// GoodPlan is a valid plan (broker + the first compliant, policy-
	// respecting hotel).
	GoodPlan network.Plan
}

// Hotels builds a repository with one broker and n hotels. Hotels cycle
// through four profiles mirroring S1–S4 of the paper: blacklisted,
// non-compliant (extra Del), valid, and threshold-violating. n must be at
// least 3 so that a valid hotel exists.
func Hotels(n int) *HotelWorld {
	phi := paperex.BookingPolicy()
	blacklist := []hexpr.Value{hexpr.Sym("h0")}
	in := phi.MustInstantiate(policy.Binding{
		Sets: map[string][]hexpr.Value{"bl": blacklist},
		Ints: map[string]int{"p": 45, "t": 100},
	})
	table := policy.NewTable(in)
	repo := network.Repository{paperex.LocBr: paperex.Broker()}
	goodHotel := hexpr.Location("")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", i)
		var price, rating int
		withDel := false
		switch i % 4 {
		case 0: // blacklisted (h0) or cheap
			price, rating = 40, 80
		case 1: // non-compliant
			price, rating, withDel = 40, 80, true
		case 2: // valid: price over threshold but perfect rating
			price, rating = 90, 100
			if goodHotel == "" {
				goodHotel = hexpr.Location(name)
			}
		case 3: // threshold violation
			price, rating = 50, 90
		}
		outs := []hexpr.Branch{
			hexpr.B(hexpr.Out("Bok"), hexpr.Eps()),
			hexpr.B(hexpr.Out("UnA"), hexpr.Eps()),
		}
		if withDel {
			outs = append(outs, hexpr.B(hexpr.Out("Del"), hexpr.Eps()))
		}
		repo[hexpr.Location(name)] = hexpr.Cat(
			hexpr.Act(hexpr.E(paperex.EvSgn, hexpr.Sym(name))),
			hexpr.Act(hexpr.E(paperex.EvPrice, hexpr.Int(price))),
			hexpr.Act(hexpr.E(paperex.EvRating, hexpr.Int(rating))),
			hexpr.RecvThen("IdC", hexpr.IntCh(outs...)),
		)
	}
	client := hexpr.Open("r1", in.ID(),
		hexpr.SendThen("Req", hexpr.Ext(
			hexpr.B(hexpr.In("CoBo"), hexpr.SendThen("Pay", hexpr.Eps())),
			hexpr.B(hexpr.In("NoAv"), hexpr.Eps()),
		)))
	return &HotelWorld{
		Repo:     repo,
		Table:    table,
		Client:   client,
		Loc:      "cl",
		GoodPlan: network.Plan{"r1": paperex.LocBr, "r3": goodHotel},
	}
}

// ChainedWorld is a workload that scales the *request* dimension of plan
// synthesis: a chain of `depth` brokerage levels, each offering `fanout`
// interchangeable services, so the pruned plan space holds fanout^depth
// complete plans — every one of them valid.
type ChainedWorld struct {
	Repo   network.Repository
	Table  *policy.Table
	Client hexpr.Expr
	Loc    hexpr.Location
	// Requests lists the chained request identifiers r1…r<depth>.
	Requests []hexpr.RequestID
	// PlanCount is the number of complete plans surviving compliance
	// pruning: fanout^depth.
	PlanCount int
}

// Chained builds the chained-brokers world: the client opens r1 towards a
// level-1 service; every level-i service (i < depth) serves its level's
// protocol and opens r<i+1> towards a level-(i+1) service in a nested
// session. The `fanout` services of one level are interchangeable (same
// protocol, distinct signing events), and each level uses level-distinct
// channels, so compliance pruning confines request r<i> to level i — the
// plan space is exactly the fanout^depth level-respecting assignments.
// The policy table is empty: all plans are valid, which makes the workload
// a pure measurement of exploration cost across an exponential plan
// family with heavily shared state.
func Chained(depth, fanout int) *ChainedWorld {
	body := func(i int) hexpr.Expr {
		return hexpr.SendThen(fmt.Sprintf("m%d", i),
			hexpr.RecvThen(fmt.Sprintf("k%d", i), hexpr.Eps()))
	}
	repo := network.Repository{}
	count := 1
	var reqs []hexpr.RequestID
	for i := 1; i <= depth; i++ {
		reqs = append(reqs, hexpr.RequestID(fmt.Sprintf("r%d", i)))
		count *= fanout
		for j := 0; j < fanout; j++ {
			name := fmt.Sprintf("s%d_%d", i, j)
			reply := hexpr.SendThen(fmt.Sprintf("k%d", i), hexpr.Eps())
			var work hexpr.Expr = reply
			if i < depth {
				// The nested call: every level-i service requests r<i+1>
				// with the same body, so each plan selects one downstream
				// service for whichever level-i service it picked.
				work = hexpr.Cat(
					hexpr.Open(hexpr.RequestID(fmt.Sprintf("r%d", i+1)),
						hexpr.NoPolicy, body(i+1)),
					reply,
				)
			}
			repo[hexpr.Location(name)] = hexpr.Cat(
				hexpr.Act(hexpr.E("sgn", hexpr.Sym(name))),
				hexpr.RecvThen(fmt.Sprintf("m%d", i), work),
			)
		}
	}
	client := hexpr.Open("r1", hexpr.NoPolicy, body(1))
	return &ChainedWorld{
		Repo:      repo,
		Table:     policy.NewTable(),
		Client:    client,
		Loc:       "cl",
		Requests:  reqs,
		PlanCount: count,
	}
}

// ChainedSource renders the Chained world as a surface-syntax
// specification (one service declaration per repository entry, one
// planless client), so source-level tools — the lint suite in
// particular — can be benchmarked over the same exponential plan family
// the engine benchmarks use. The output parses back to the same world.
func ChainedSource(depth, fanout int) string {
	w := Chained(depth, fanout)
	var b strings.Builder
	writeServices(&b, w.Repo)
	fmt.Fprintf(&b, "client cl at %s = %s;\n", w.Loc, hexpr.Pretty(w.Client))
	return b.String()
}

// GuardedChainedSource renders the Chained world with its client's
// session framed by nosgn(b = deny), a policy that forbids sgn(x) for x
// in deny: the shape of the novel plans request of the serve-mix
// benchmark workload. deny names services (s<i>_<j>); a plan is valid iff
// it binds none of them, so Π_i (fanout − |deny ∩ level i|) of the
// fanout^depth plans are valid, and most fail on their first denied
// binding.
func GuardedChainedSource(depth, fanout int, deny []hexpr.Location) string {
	w := Chained(depth, fanout)
	var b strings.Builder
	// The sentinel keeps the set literal non-empty.
	set := []string{"nobody"}
	for _, d := range deny {
		set = append(set, string(d))
	}
	b.WriteString("policy nosgn(b set) {\n  states ok bad;\n  start ok;\n  final bad;\n  edge ok -> bad on sgn(x) when x in b;\n}\n")
	fmt.Fprintf(&b, "instance deny = nosgn(b = {%s});\n", strings.Join(set, ", "))
	writeServices(&b, w.Repo)
	fmt.Fprintf(&b, "client cl at %s = open r1 with deny { %s };\n",
		w.Loc, hexpr.Pretty(w.Client.(hexpr.Session).Body))
	return b.String()
}

// writeServices writes one service declaration per repository entry, in
// location order.
func writeServices(b *strings.Builder, repo network.Repository) {
	locs := make([]string, 0, len(repo))
	for loc := range repo {
		locs = append(locs, string(loc))
	}
	sort.Strings(locs)
	for _, loc := range locs {
		fmt.Fprintf(b, "service %s = %s;\n", loc, hexpr.Pretty(repo[hexpr.Location(loc)]))
	}
}

// ChainedClient is one planned client of the ChainedClients world.
type ChainedClient struct {
	Name string
	Loc  hexpr.Location
	// Req is the client's own opening request (unique per client, so the
	// declarations lint clean).
	Req  hexpr.RequestID
	Expr hexpr.Expr
	Plan network.Plan
}

// ChainedClientsWorld extends the Chained repository with n fully planned
// clients, the workload of the incremental-verification benchmarks: many
// declarations over one shared repository, each with a small, mostly
// disjoint dependency cone.
type ChainedClientsWorld struct {
	*ChainedWorld
	Clients []ChainedClient
	Depth   int
	Fanout  int
}

// ChainedClients builds n planned clients over the Chained(depth, fanout)
// repository. Every client follows the column-0 spine — r_i bound to
// s<i>_0 — except at one level, its *divergence*: client k diverges at
// level d = 1+(k mod depth) to column c = 1+(k div depth mod (fanout-1)).
// While n ≤ depth·(fanout-1), the divergences are pairwise distinct, so
// each divergent service s<d>_<c> sits in exactly ONE client's dependency
// cone: editing it must invalidate exactly one of the n persisted
// verdicts. (The spine services s<i>_0 sit in almost every cone — editing
// one is the worst case.) All plans are level-respecting, hence valid.
// fanout must be at least 2.
func ChainedClients(depth, fanout, n int) *ChainedClientsWorld {
	w := Chained(depth, fanout)
	out := &ChainedClientsWorld{ChainedWorld: w, Depth: depth, Fanout: fanout}
	for k := 0; k < n; k++ {
		req := hexpr.RequestID(fmt.Sprintf("q%d", k))
		c := ChainedClient{
			Name: fmt.Sprintf("c%d", k),
			Loc:  hexpr.Location(fmt.Sprintf("cl%d", k)),
			Req:  req,
			Expr: hexpr.Open(req, hexpr.NoPolicy,
				hexpr.SendThen("m1", hexpr.RecvThen("k1", hexpr.Eps()))),
			Plan: network.Plan{},
		}
		d := 1 + k%depth
		col := 1 + (k/depth)%(fanout-1)
		for i := 1; i <= depth; i++ {
			j := 0
			if i == d {
				j = col
			}
			r := req
			if i > 1 {
				r = hexpr.RequestID(fmt.Sprintf("r%d", i))
			}
			c.Plan[r] = hexpr.Location(fmt.Sprintf("s%d_%d", i, j))
		}
		out.Clients = append(out.Clients, c)
	}
	return out
}

// Divergent returns the service only client k's plan selects off the
// column-0 spine — the canonical single-cone edit target.
func (w *ChainedClientsWorld) Divergent(k int) hexpr.Location {
	d := 1 + k%w.Depth
	col := 1 + (k/w.Depth)%(w.Fanout-1)
	return hexpr.Location(fmt.Sprintf("s%d_%d", d, col))
}

// ChainedClientsSource renders the ChainedClients world as a
// surface-syntax specification with fully planned clients, ready for
// `susc checkall`: the workload of the incremental-smoke CI job. The
// output parses back to the same world.
func ChainedClientsSource(depth, fanout, n int) string {
	w := ChainedClients(depth, fanout, n)
	var b strings.Builder
	writeServices(&b, w.Repo)
	for _, c := range w.Clients {
		var binds []string
		binds = append(binds, fmt.Sprintf("%s -> %s", c.Req, c.Plan[c.Req]))
		for i := 2; i <= depth; i++ {
			r := hexpr.RequestID(fmt.Sprintf("r%d", i))
			binds = append(binds, fmt.Sprintf("%s -> %s", r, c.Plan[r]))
		}
		fmt.Fprintf(&b, "client %s at %s plan { %s } = %s;\n",
			c.Name, c.Loc, strings.Join(binds, ", "), hexpr.Pretty(c.Expr))
	}
	return b.String()
}

// PingPong builds a compliant recursive contract pair exchanging `width`
// distinct messages per round for `depth` alternation layers: the product
// automaton grows with both parameters.
func PingPong(width, depth int) (client, server hexpr.Expr) {
	client = pingPongSide(width, depth, true)
	server = pingPongSide(width, depth, false)
	return client, server
}

func pingPongSide(width, depth int, isClient bool) hexpr.Expr {
	var build func(d int) hexpr.Expr
	build = func(d int) hexpr.Expr {
		if d == 0 {
			if isClient {
				return hexpr.SendThen("bye", hexpr.Eps())
			}
			return hexpr.RecvThen("bye", hexpr.Eps())
		}
		bs := make([]hexpr.Branch, 0, width)
		for i := 0; i < width; i++ {
			ch := fmt.Sprintf("m%d_%d", d, i)
			ack := fmt.Sprintf("ack%d_%d", d, i)
			if isClient {
				bs = append(bs, hexpr.B(hexpr.Out(ch),
					hexpr.RecvThen(ack, build(d-1))))
			} else {
				bs = append(bs, hexpr.B(hexpr.In(ch),
					hexpr.SendThen(ack, build(d-1))))
			}
		}
		if isClient {
			return hexpr.IntCh(bs...)
		}
		return hexpr.Ext(bs...)
	}
	return build(depth)
}

// LoopContract builds μh.(m0!.h ⊕ … ⊕ m_{w-1}!.h ⊕ bye!) and its dual —
// a compliant pair with a single recursive state of width w.
func LoopContract(width int) (client, server hexpr.Expr) {
	cbs := make([]hexpr.Branch, 0, width+1)
	sbs := make([]hexpr.Branch, 0, width+1)
	for i := 0; i < width; i++ {
		ch := fmt.Sprintf("m%d", i)
		cbs = append(cbs, hexpr.B(hexpr.Out(ch), hexpr.V("h")))
		sbs = append(sbs, hexpr.B(hexpr.In(ch), hexpr.V("k")))
	}
	cbs = append(cbs, hexpr.B(hexpr.Out("bye"), hexpr.Eps()))
	sbs = append(sbs, hexpr.B(hexpr.In("bye"), hexpr.Eps()))
	return hexpr.Mu("h", hexpr.IntCh(cbs...)), hexpr.Mu("k", hexpr.Ext(sbs...))
}

// EventChain builds a chain of n events wrapped in `nesting` framings of
// distinct policies (policy i forbids the event named bad_i, which the
// chain never fires, so the expression is valid). It returns the
// expression and the table with every policy.
func EventChain(n, nesting int) (hexpr.Expr, *policy.Table) {
	table := policy.NewTable()
	var e hexpr.Expr = hexpr.Eps()
	parts := make([]hexpr.Expr, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, hexpr.Act(hexpr.E(fmt.Sprintf("ev%d", i%7), hexpr.Int(i))))
	}
	e = hexpr.Cat(parts...)
	for i := 0; i < nesting; i++ {
		a := &policy.Automaton{
			Name:   fmt.Sprintf("pol%d", i),
			States: []string{"q0", "qv"},
			Start:  "q0",
			Finals: []string{"qv"},
			Edges: []policy.Edge{
				{From: "q0", To: "qv", EventName: fmt.Sprintf("bad%d", i)},
			},
		}
		in := a.MustInstantiate(policy.Binding{})
		table.Add(in)
		e = hexpr.Frame(in.ID(), e)
	}
	return e, table
}

// RedundantFramings wraps the event chain in `depth` framings of the SAME
// policy — the workload the regularization of internal/valid collapses to
// depth one.
func RedundantFramings(n, depth int) (hexpr.Expr, *policy.Table) {
	a := &policy.Automaton{
		Name:   "pol",
		States: []string{"q0", "qv"},
		Start:  "q0",
		Finals: []string{"qv"},
		Edges:  []policy.Edge{{From: "q0", To: "qv", EventName: "bad"}},
	}
	in := a.MustInstantiate(policy.Binding{})
	table := policy.NewTable(in)
	parts := make([]hexpr.Expr, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, hexpr.Act(hexpr.E(fmt.Sprintf("ev%d", i%7))))
	}
	e := hexpr.Cat(parts...)
	for i := 0; i < depth; i++ {
		e = hexpr.Frame(in.ID(), hexpr.Cat(hexpr.Act(hexpr.E("mark", hexpr.Int(i))), e))
	}
	return e, table
}

// LambdaChain builds a λ-program firing n events through n nested
// applications — a workload for effect-inference benchmarks.
func LambdaChain(n int) lambda.Term {
	var body lambda.Term = lambda.Unit{}
	for i := 0; i < n; i++ {
		body = lambda.Seq{
			First: lambda.Fire{Event: hexpr.E(fmt.Sprintf("ev%d", i%5), hexpr.Int(i))},
			Then:  body,
		}
	}
	fn := lambda.Abs{Param: "x", ParamType: lambda.UnitT{}, Body: body}
	return lambda.App{Fn: fn, Arg: lambda.Unit{}}
}
