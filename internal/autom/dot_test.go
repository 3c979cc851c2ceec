package autom

import (
	"strings"
	"testing"
)

func TestNFADOT(t *testing.T) {
	n := buildEvenAs()
	dot := n.DOT("even")
	for _, want := range []string{
		`digraph "even"`, "rankdir=LR", "doublecircle", `label="a"`, "__start -> q0",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("NFA dot missing %q:\n%s", want, dot)
		}
	}
}
