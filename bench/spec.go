package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// This file builds every generated input from a seed, together with the
// answer the system must give on it. The answers follow from how the
// inputs are built, never from running the system:
//
//   - Chained(d, f): level i offers f interchangeable services s<i>_<j>,
//     each serving m<i>?/k<i>! and opening r<i+1> to level i+1, so the
//     client has exactly f^d plans and, with no policy, all are valid.
//   - A guarded chain frames the client's session with nosgn(b), which
//     forbids sgn(x) for x in b: a plan is valid iff it picks no service
//     in b, so Π_i (f − |b ∩ level i|) plans are valid.
//   - ChainedClients(d, f, n): n clients with declared plans that follow
//     the column-0 spine except at one level each; client k alone selects
//     its divergent service, so editing that service invalidates exactly
//     one of the n persisted plan verdicts.

// chain describes one rendering of the Chained world.
type chain struct {
	depth, fanout int
	prefix        string   // prepended to every service name (fresh names defeat every cache)
	deny          []string // when non-nil, the client is framed by nosgn(b = deny)
	edit          string   // service whose body gets one extra trailing event
}

func (c chain) service(level, col int) string {
	return fmt.Sprintf("%ss%d_%d", c.prefix, level, col)
}

// text renders the chain as a specification; rng shuffles the service
// declaration order (nil keeps level order).
func (c chain) text(rng *rand.Rand) string {
	var decls []string
	for i := 1; i <= c.depth; i++ {
		for j := 0; j < c.fanout; j++ {
			name := c.service(i, j)
			body := fmt.Sprintf("sgn(%s) . m%d? . k%d!", name, i, i)
			if i < c.depth {
				body = fmt.Sprintf("sgn(%s) . m%d? . open r%d { m%d! . k%d? } . k%d!", name, i, i+1, i+1, i+1, i)
			}
			if name == c.edit {
				body += " . tweak()"
			}
			decls = append(decls, fmt.Sprintf("service %s = %s;\n", name, body))
		}
	}
	if rng != nil {
		rng.Shuffle(len(decls), func(a, b int) { decls[a], decls[b] = decls[b], decls[a] })
	}
	var b strings.Builder
	with := ""
	if c.deny != nil {
		// Policies must be declared before the client that uses them; the
		// sentinel keeps the set literal non-empty.
		fmt.Fprintf(&b, "policy nosgn(b set) {\n  states ok bad;\n  start ok;\n  final bad;\n  edge ok -> bad on sgn(x) when x in b;\n}\n")
		fmt.Fprintf(&b, "instance deny = nosgn(b = {%s});\n", strings.Join(append([]string{"nobody"}, c.deny...), ", "))
		with = " with deny"
	}
	for _, d := range decls {
		b.WriteString(d)
	}
	fmt.Fprintf(&b, "client cl at cl = open r1%s { m1! . k1? };\n", with)
	return b.String()
}

// plans is the number of plans the client has.
func (c chain) plans() int {
	n := 1
	for i := 0; i < c.depth; i++ {
		n *= c.fanout
	}
	return n
}

// validPlans is Π_i (fanout − |deny ∩ level i|).
func (c chain) validPlans() int {
	denied := map[string]bool{}
	for _, d := range c.deny {
		denied[d] = true
	}
	n := 1
	for i := 1; i <= c.depth; i++ {
		ok := 0
		for j := 0; j < c.fanout; j++ {
			if !denied[c.service(i, j)] {
				ok++
			}
		}
		n *= ok
	}
	return n
}

// planValid decides one plan (request -> service) by construction.
func (c chain) planValid(plan map[string]string) bool {
	for _, d := range c.deny {
		for _, s := range plan {
			if s == d {
				return false
			}
		}
	}
	return true
}

// randomDeny draws each service into the deny set with probability 1/4,
// so most draws leave some valid plan and no two requests are likely to
// share a set.
func (c chain) randomDeny(rng *rand.Rand) []string {
	deny := []string{}
	for i := 1; i <= c.depth; i++ {
		for j := 0; j < c.fanout; j++ {
			if rng.Intn(4) == 0 {
				deny = append(deny, c.service(i, j))
			}
		}
	}
	return deny
}

// clients describes the ChainedClients world.
type clients struct {
	depth, fanout, n int
	edit             string // service whose body gets one extra trailing event
}

// divergent is the one service off the column-0 spine that client k's
// plan selects: level 1+(k mod depth), column 1+(k div depth mod (fanout−1)).
func (w clients) divergent(k int) (level, col int) {
	return 1 + k%w.depth, 1 + (k/w.depth)%(w.fanout-1)
}

func (w clients) text(rng *rand.Rand) string {
	base := chain{depth: w.depth, fanout: w.fanout, edit: w.edit}
	var decls []string
	for _, line := range strings.SplitAfter(base.text(nil), "\n") {
		if strings.HasPrefix(line, "service ") {
			decls = append(decls, line)
		}
	}
	for k := 0; k < w.n; k++ {
		dl, dc := w.divergent(k)
		var binds []string
		for i := 1; i <= w.depth; i++ {
			col := 0
			if i == dl {
				col = dc
			}
			req := fmt.Sprintf("r%d", i)
			if i == 1 {
				req = fmt.Sprintf("q%d", k)
			}
			binds = append(binds, fmt.Sprintf("%s -> %s", req, base.service(i, col)))
		}
		decls = append(decls, fmt.Sprintf("client c%d at cl%d plan { %s } = open q%d { m1! . k1? };\n",
			k, k, strings.Join(binds, ", "), k))
	}
	rng.Shuffle(len(decls), func(a, b int) { decls[a], decls[b] = decls[b], decls[a] })
	return strings.Join(decls, "")
}
