package lint

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"susc/internal/budget"
	"susc/internal/compliance"
	"susc/internal/hexpr"
	"susc/internal/parser"
	"susc/internal/valid"
)

// semanticSource lints a semantic fixture with the full suite.
func semanticSource(t *testing.T, name string) (string, []Diagnostic) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "semantic", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src), Source(string(src), Options{Analyzers: AllAnalyzers()})
}

// TestSemanticFixtureCodes pins each semantic fixture to the exact codes
// it must trigger under the full suite, and checks the witness contract:
// every semantic diagnostic carries a non-empty witness with a positioned
// span and JSON that round-trips.
func TestSemanticFixtureCodes(t *testing.T) {
	expected := map[string][]string{
		"susc011_violable.susc":      {CodeViolableFraming},
		"susc012_deadlockable.susc":  {CodeDeadlockableRequest},
		"susc013_unrealizable.susc":  {CodeUnrealizableRequest},
		"susc014_subsumed.susc":      {CodeSubsumedFraming},
		"susc015_deadautomaton.susc": {CodeUnreachableState, CodeUnreachableState},
		"clean.susc":                 {},
	}
	for name, want := range expected {
		_, diags := semanticSource(t, name)
		var got []string
		for _, d := range diags {
			got = append(got, d.Code)
			if d.Span.IsZero() {
				t.Errorf("%s: %s has no source span", name, d.Code)
			}
			if d.Witness == nil || len(d.Witness.Steps) == 0 {
				t.Errorf("%s: %s carries no witness trace: %s", name, d.Code, d)
				continue
			}
			var round Witness
			blob, err := json.Marshal(d.Witness)
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			if err := json.Unmarshal(blob, &round); err != nil {
				t.Fatalf("%s: unmarshal: %v", name, err)
			}
			if round.Kind != d.Witness.Kind || len(round.Steps) != len(d.Witness.Steps) {
				t.Errorf("%s: witness does not round-trip through JSON", name)
			}
		}
		if !equalStrings(got, want) {
			t.Errorf("%s: got codes %v, want %v", name, got, want)
		}
	}
}

// TestViolationWitnessReplays replays the SUSC011 witness over the policy
// instance itself: the event steps, run in order, must drive the automaton
// into an offending state, and the trace must be BFS-minimal (the fixture
// has exactly one shortest violation: frame open, read, write).
func TestViolationWitnessReplays(t *testing.T) {
	src, diags := semanticSource(t, "susc011_violable.susc")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	w := diags[0].Witness
	if w.Kind != WitnessViolation {
		t.Fatalf("witness kind = %s", w.Kind)
	}
	if len(w.Steps) != 3 {
		t.Fatalf("witness has %d steps, want the 3-step minimal trace: %v", len(w.Steps), w.Steps)
	}
	f, err := parser.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	in, err := f.Table.Get(f.Instances["noleak"])
	if err != nil {
		t.Fatal(err)
	}
	var trace []hexpr.Event
	for _, s := range w.Steps {
		if strings.HasPrefix(s.Label, "[_") || strings.HasPrefix(s.Label, "_]") {
			continue // framing actions are not events
		}
		trace = append(trace, hexpr.E(s.Label))
	}
	if !in.Recognizes(trace) {
		t.Errorf("witness trace %v does not replay to an offending state", trace)
	}
	if last := w.Steps[len(w.Steps)-1]; last.State == "" || !strings.Contains(w.Note, last.State) {
		t.Errorf("final step state %q not named by the note %q", last.State, w.Note)
	}
}

// TestViolableSkipsFramelessDeclarations: SUSC011 model-checks only the
// declarations that frame a policy, so on a network none of whose
// declarations frames one it reports nothing and charges no state, even
// under a one-state budget.
func TestViolableSkipsFramelessDeclarations(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "benchgen", "testdata", "chained-clients-6-4-3.susc"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range newPass(f, nil, Options{}).decls() {
		if ps := hexpr.Policies(d.expr); len(ps) != 0 {
			t.Fatalf("%s frames %v: the fixture must frame no policy", d.what(), ps)
		}
	}
	b := budget.New(context.Background(), budget.Limits{MaxStates: 1})
	if diags := Run(f, nil, Options{Analyzers: []*Analyzer{violableAnalyzer}, Budget: b}); len(diags) != 0 {
		t.Fatalf("violable on a frameless network: %v", diags)
	}
	if s := b.States(); s != 0 {
		t.Fatalf("violable charged %d states, want 0", s)
	}
}

// TestViolableSkipIsSound: a declaration that frames no policy has no
// counterexample (valid.FindCounterexamples checks each framed policy and
// there is none), so SUSC011's skip of such declarations hides no finding.
// Checked over every strictly parsing fixture.
func TestViolableSkipIsSound(t *testing.T) {
	var paths []string
	for _, dir := range []string{"../../testdata", "../../examples/specs", "testdata", "testdata/semantic", "testdata/audit"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.susc"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	checked := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(string(src))
		if err != nil {
			continue // lenient-only fixtures: the strict parser rejects them
		}
		for _, d := range newPass(f, nil, Options{}).decls() {
			if len(hexpr.Policies(d.expr)) != 0 {
				continue
			}
			ces, err := valid.FindCounterexamples(d.expr, f.Table)
			if err != nil {
				t.Errorf("%s: %s: %v", path, d.what(), err)
			}
			if len(ces) != 0 {
				t.Errorf("%s: %s frames no policy, yet violates %s", path, d.what(), ces[0].Policy)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d frameless declarations checked", checked)
	}
	t.Logf("%d frameless declarations in %d fixtures have no counterexample", checked, len(paths))
}

// TestDeadlockWitnessReplays replays the SUSC012 witness over the product
// automaton of the failing binding: following the channel labels from the
// initial pair must end in a stuck (final) state.
func TestDeadlockWitnessReplays(t *testing.T) {
	src, diags := semanticSource(t, "susc012_deadlockable.susc")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	w := diags[0].Witness
	if w.Kind != WitnessDeadlock {
		t.Fatalf("witness kind = %s", w.Kind)
	}
	f, err := parser.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Client("c")
	if err != nil {
		t.Fatal(err)
	}
	var body hexpr.Expr
	hexpr.Walk(c.Expr, func(x hexpr.Expr) {
		if s, ok := x.(hexpr.Session); ok && s.Req == "r1" {
			body = s.Body
		}
	})
	p, err := compliance.NewProduct(body, f.Repo["bad"])
	if err != nil {
		t.Fatal(err)
	}
	cur := 0
	for _, step := range w.Steps {
		moved := false
		for _, e := range p.Edges[cur] {
			if e.Channel == step.Label {
				cur = e.To
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("witness step %q does not replay from product state %d", step.Label, cur)
		}
	}
	if !p.Final[cur] {
		t.Errorf("witness replay ends in non-stuck product state %d", cur)
	}
}

// TestWitnessRenderAndDOT checks the human rendering anchors steps at
// file:line:col and the DOT emission is a well-formed linear digraph.
func TestWitnessRenderAndDOT(t *testing.T) {
	_, diags := semanticSource(t, "susc011_violable.susc")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	w := diags[0].Witness
	text := w.Render("fix.susc")
	if !strings.Contains(text, "at fix.susc:14:") {
		t.Errorf("rendering lacks file-prefixed anchors:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasSuffix(line, " ") {
			t.Errorf("rendered line has trailing spaces: %q", line)
		}
	}
	dot := w.DOT("susc011")
	for _, frag := range []string{`digraph "susc011"`, "rankdir=LR", "__start -> n0", "doublecircle", "n0 -> n1"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output lacks %q:\n%s", frag, dot)
		}
	}
}
