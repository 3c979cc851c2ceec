package autom

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the NFA in Graphviz dot syntax. Accepting states are drawn
// as double circles; the start state is marked with an incoming arrow.
func (a *NFA) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n  node [shape=circle];\n")
	fmt.Fprintf(&b, "  __start [shape=point];\n  __start -> q%d;\n", a.start)
	for s := 0; s < a.n; s++ {
		shape := "circle"
		if a.accept[s] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  q%d [shape=%s];\n", s, shape)
	}
	for s := 0; s < a.n; s++ {
		syms := make([]string, 0, len(a.edges[s]))
		for sym := range a.edges[s] {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			for _, t := range a.edges[s][sym] {
				fmt.Fprintf(&b, "  q%d -> q%d [label=%q];\n", s, t, sym)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
