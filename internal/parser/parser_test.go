package parser_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"susc/internal/hexpr"
	"susc/internal/paperex"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// hotelSource is the paper's §2 scenario in the surface syntax.
const hotelSource = `
// Figure 1: the booking policy phi(bl, p, t)
policy phi(bl set, p int, t int) {
  states q1 q2 q3 q4 q5 q6;
  start q1;
  final q6;
  edge q1 -> q2 on sgn(x) when x notin bl;
  edge q1 -> q6 on sgn(x) when x in bl;
  edge q2 -> q3 on price(y) when y <= p;
  edge q2 -> q4 on price(y) when y > p;
  edge q4 -> q5 on rating(z) when z >= t;
  edge q4 -> q6 on rating(z) when z < t;
}

instance phi1 = phi(bl = {s1}, p = 45, t = 100);
instance phi2 = phi(bl = {s1, s3}, p = 40, t = 70);

// Figure 2: the broker and the hotels
service br = Req? . open r3 { IdC! . (Bok? + UnA?) } . (CoBo! . Pay? (+) NoAv!);
service s1 = sgn(s1) . price(45) . rating(80) . IdC? . (Bok! (+) UnA!);
service s2 = sgn(s2) . price(70) . rating(100) . IdC? . (Bok! (+) UnA! (+) Del!);
service s3 = sgn(s3) . price(90) . rating(100) . IdC? . (Bok! (+) UnA!);
service s4 = sgn(s4) . price(50) . rating(90) . IdC? . (Bok! (+) UnA!);

client c1 at c1 plan { r1 -> br, r3 -> s3 } =
    open r1 with phi1 { Req! . (CoBo? . Pay! + NoAv?) };
client c2 at c2 =
    open r2 with phi2 { Req! . (CoBo? . Pay! + NoAv?) };
`

func parseHotel(t *testing.T) *parser.File {
	t.Helper()
	f, err := parser.ParseFile(hotelSource)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestHotelFileMatchesPaperex: the parsed scenario coincides, term by term,
// with the programmatically built one.
func TestHotelFileMatchesPaperex(t *testing.T) {
	f := parseHotel(t)
	want := map[hexpr.Location]hexpr.Expr{
		paperex.LocBr: paperex.Broker(),
		paperex.LocS1: paperex.S1(),
		paperex.LocS2: paperex.S2(),
		paperex.LocS3: paperex.S3(),
		paperex.LocS4: paperex.S4(),
	}
	for loc, w := range want {
		got, ok := f.Repo[loc]
		if !ok {
			t.Fatalf("service %s missing", loc)
		}
		if !hexpr.Equal(got, w) {
			t.Errorf("service %s:\n  parsed %s\n  want   %s", loc, got.Key(), w.Key())
		}
	}
	c1, err := f.Client("c1")
	if err != nil {
		t.Fatal(err)
	}
	if !hexpr.Equal(c1.Expr, paperex.C1()) {
		t.Errorf("c1:\n  parsed %s\n  want   %s", c1.Expr.Key(), paperex.C1().Key())
	}
	if c1.Plan.Key() != "{r1>br,r3>s3}" {
		t.Errorf("c1 plan = %s", c1.Plan)
	}
	c2, err := f.Client("c2")
	if err != nil {
		t.Fatal(err)
	}
	if !hexpr.Equal(c2.Expr, paperex.C2()) {
		t.Errorf("c2:\n  parsed %s\n  want   %s", c2.Expr.Key(), paperex.C2().Key())
	}
	if c2.Plan != nil {
		t.Errorf("c2 has no plan, got %s", c2.Plan)
	}
}

// TestHotelFileInstances: the parsed instances carry the canonical IDs and
// the same behaviour as the paperex ones.
func TestHotelFileInstances(t *testing.T) {
	f := parseHotel(t)
	if f.Instances["phi1"] != paperex.Phi1().ID() {
		t.Errorf("phi1 id = %s, want %s", f.Instances["phi1"], paperex.Phi1().ID())
	}
	if f.Instances["phi2"] != paperex.Phi2().ID() {
		t.Errorf("phi2 id = %s", f.Instances["phi2"])
	}
	// behaviour check through the table
	trace := []hexpr.Event{
		hexpr.E("sgn", hexpr.Sym("s4")),
		hexpr.E("price", hexpr.Int(50)),
		hexpr.E("rating", hexpr.Int(90)),
	}
	if !f.Table.Violates(f.Instances["phi1"], trace) {
		t.Error("parsed phi1 must reject S4's trace")
	}
	if f.Table.Violates(f.Instances["phi2"], trace) {
		t.Error("parsed phi2 must accept S4's trace")
	}
}

// TestParsedScenarioEndToEnd: plan synthesis over the parsed file gives
// the paper's results.
func TestParsedScenarioEndToEnd(t *testing.T) {
	f := parseHotel(t)
	c1, _ := f.Client("c1")
	got, err := plans.Synthesize(f.Repo, f.Table, c1.Loc, c1.Expr, plans.Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key() != "{r1>br,r3>s3}" {
		t.Fatalf("plans = %v", got)
	}
	// and the declared plan verifies
	ok, err := verify.ValidPlan(f.Repo, f.Table, c1.Loc, c1.Expr, c1.Plan)
	if err != nil || !ok {
		t.Fatalf("declared plan should be valid: %v %v", ok, err)
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []struct {
		src  string
		want hexpr.Expr
	}{
		{"eps", hexpr.Eps()},
		{"a?", hexpr.RecvThen("a", hexpr.Eps())},
		{"a!", hexpr.SendThen("a", hexpr.Eps())},
		{"a? . b!", hexpr.RecvThen("a", hexpr.SendThen("b", hexpr.Eps()))},
		{"sgn(1)", hexpr.Act(hexpr.E("sgn", hexpr.Int(1)))},
		{"sgn(s1, 2)", hexpr.Act(hexpr.E("sgn", hexpr.Sym("s1"), hexpr.Int(2)))},
		{"done()", hexpr.Act(hexpr.E("done"))},
		{"a? + b?", hexpr.Ext(
			hexpr.B(hexpr.In("a"), hexpr.Eps()),
			hexpr.B(hexpr.In("b"), hexpr.Eps()))},
		{"a! (+) b!", hexpr.IntCh(
			hexpr.B(hexpr.Out("a"), hexpr.Eps()),
			hexpr.B(hexpr.Out("b"), hexpr.Eps()))},
		{"a? . x() + b?", hexpr.Ext(
			hexpr.B(hexpr.In("a"), hexpr.Act(hexpr.E("x"))),
			hexpr.B(hexpr.In("b"), hexpr.Eps()))},
		{"mu h . a! . h", hexpr.Mu("h", hexpr.SendThen("a", hexpr.V("h")))},
		{"mu h . (a? . h + b?)", hexpr.Mu("h", hexpr.Ext(
			hexpr.B(hexpr.In("a"), hexpr.V("h")),
			hexpr.B(hexpr.In("b"), hexpr.Eps())))},
		{"open r1 with phi { a! }", hexpr.Open("r1", "phi", hexpr.SendThen("a", hexpr.Eps()))},
		{"open r1 { a! }", hexpr.Open("r1", hexpr.NoPolicy, hexpr.SendThen("a", hexpr.Eps()))},
		{"enforce phi { sgn(1) }", hexpr.Frame("phi", hexpr.Act(hexpr.E("sgn", hexpr.Int(1))))},
		{"(a?)", hexpr.RecvThen("a", hexpr.Eps())},
		{"sgn(1) . price(2)", hexpr.Cat(
			hexpr.Act(hexpr.E("sgn", hexpr.Int(1))),
			hexpr.Act(hexpr.E("price", hexpr.Int(2))))},
		// recursion after a prefix
		{"go? . mu h . ping! . pong? . h",
			hexpr.RecvThen("go", hexpr.Mu("h",
				hexpr.SendThen("ping", hexpr.RecvThen("pong", hexpr.V("h")))))},
	}
	for _, c := range cases {
		got, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		if !hexpr.Equal(got, c.want) {
			t.Errorf("ParseExpr(%q) = %s, want %s", c.src, got.Key(), c.want.Key())
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	cases := []struct {
		src string
		msg string
	}{
		{"", "expected an expression"},
		{"a? +", "expected an expression"},
		{"a? + b!", "output-guarded summand in an external choice"},
		{"a! (+) b?", "input-guarded summand in an internal choice"},
		{"a? + b? (+) c!", "cannot mix"},
		{"eps + eps", "must start with a channel action"},
		{"open r1", "expected '{'"},
		{"open r1 { a! ", "expected '}'"},
		{"enforce { a! }", "expected identifier"},
		{"mu . a!", "expected identifier"},
		{"a? . ", "expected an expression"},
		{"(a?", "expected ')'"},
		{"a? b?", "trailing input"},
		{"sgn(", "expected a value"},
		{"@", "unexpected character"},
	}
	for _, c := range cases {
		_, err := parser.ParseExpr(c.src)
		if err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error %q", c.src, c.msg)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("ParseExpr(%q) = %v, want mention of %q", c.src, err, c.msg)
		}
	}
}

func TestParseFileErrors(t *testing.T) {
	cases := []struct {
		src string
		msg string
	}{
		{"bogus x;", "unknown declaration"},
		{"policy p() { start q; }", "no states"},
		{"policy p(x float) { }", "parameter kind"},
		{"policy p() { states q; start q; edge q -> z on e; }", "unknown state"},
		{"policy p() { states q; start q; edge q -> q on e(x) when y in s; }", "unknown variable"},
		{"policy p() { states q; start q; edge q -> q on e(x) when x in s, x in s; }", "constrained twice"},
		{"instance i = nope();", "unknown policy"},
		{"policy p() { states q; start q; }\ninstance i = p();\ninstance i = p();", "redeclared"},
		{"service s = a?;\nservice s = a?;", "redeclared"},
		{"service s = h;", "free recursion variables"},
		{"client c at l = h;", "free recursion variables"},
		{"123", "expected a declaration"},
	}
	for _, c := range cases {
		_, err := parser.ParseFile(c.src)
		if err == nil {
			t.Errorf("ParseFile(%q) succeeded, want error %q", c.src, c.msg)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("ParseFile(%q) = %v, want mention of %q", c.src, err, c.msg)
		}
	}
}

func TestParseGuardOperators(t *testing.T) {
	src := `
policy g(n int) {
  states q0 qv;
  start q0;
  final qv;
  edge q0 -> qv on eq(x) when x == 7;
  edge q0 -> qv on ne(x) when x != ok;
  edge q0 -> qv on lt(x) when x < n;
  edge q0 -> qv on any(x);
}
instance gi = g(n = 10);
`
	f, err := parser.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Instances["gi"]
	checks := []struct {
		ev   hexpr.Event
		want bool
	}{
		{hexpr.E("eq", hexpr.Int(7)), true},
		{hexpr.E("eq", hexpr.Int(8)), false},
		{hexpr.E("ne", hexpr.Sym("bad")), true},
		{hexpr.E("ne", hexpr.Sym("ok")), false},
		{hexpr.E("lt", hexpr.Int(9)), true},
		{hexpr.E("lt", hexpr.Int(10)), false},
		{hexpr.E("any", hexpr.Sym("whatever")), true},
	}
	for _, c := range checks {
		if got := f.Table.Violates(id, []hexpr.Event{c.ev}); got != c.want {
			t.Errorf("event %v: violates = %v, want %v", c.ev, got, c.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	e, err := parser.ParseExpr("a? . // comment here\n b!")
	if err != nil {
		t.Fatal(err)
	}
	want := hexpr.RecvThen("a", hexpr.SendThen("b", hexpr.Eps()))
	if !hexpr.Equal(e, want) {
		t.Errorf("got %s", e.Key())
	}
}

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseExpr should panic on bad input")
		}
	}()
	parser.MustParseExpr("@@@")
}

func TestErrorPositions(t *testing.T) {
	_, err := parser.ParseExpr("a? .\n  @")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*parser.Error)
	if !ok {
		t.Fatalf("err type %T", err)
	}
	if perr.Line != 2 || perr.Col != 3 {
		t.Errorf("position = %d:%d, want 2:3", perr.Line, perr.Col)
	}
}

// specA and specB open r9 with two bodies, in services a and b: under
// specA one request reaches either, under specB the client reaches both.
const (
	specA = `service a = X? . open r9 { P! } . Ka!;
service b = X? . open r9 { Q! } . Kb!;
service c = P?;
service d = Q?;
client cl at cl = open r1 { X! . (Ka? + Kb?) };
`
	specB = `service a = X? . open r9 { Q! } . Ka!;
service b = Y? . open r9 { Q! (+) Z! } . Kb!;
service c = Q?;
client cl at cl plan { r1 -> a, r2 -> b, r9 -> c } = open r1 { X! . Ka? } . open r2 { Y! . Kb? };
`
)

// TestRequestClashRefused: a declaration that opens a request identifier
// with another framing policy or body than an earlier session of the
// client's world — in itself, in a service, or, for a service, in a
// client — fails strict parsing at its `open`, naming the earlier
// declaration.
func TestRequestClashRefused(t *testing.T) {
	cases := []struct {
		name, src string
		line, col int
		msg       string
	}{
		{"A", specA, 2, 23, "request r9 is opened with another body than in service a at 1:23"},
		{"B", specB, 2, 23, "request r9 is opened with another body than in service a at 1:23"},
		{"policy", "policy p() { states q; start q; }\ninstance i = p();\n" +
			"service a = open r9 { P! };\nservice b = open r9 with i { P! };",
			4, 18, "request r9 is opened with another framing policy than in service a at 3:18"},
		{"branches", "service a = X? . open r9 { P! } + Y? . open r9 { Q! };",
			1, 45, "request r9 is opened with another body than in service a at 1:23"},
		{"client after service", "service a = open r9 { P! };\nclient cl at cl = open r9 { Q! };",
			2, 24, "request r9 is opened with another body than in service a at 1:18"},
		{"service after client", "client cl at cl = open r9 { Q! };\nservice a = open r9 { P! };",
			2, 18, "request r9 is opened with another body than in client cl at 1:24"},
	}
	for _, c := range cases {
		_, err := parser.ParseFile(c.src)
		var perr *parser.Error
		if !errors.As(err, &perr) {
			t.Fatalf("%s: err = %v, want a positioned parse error", c.name, err)
		}
		if perr.Line != c.line || perr.Col != c.col || perr.Msg != c.msg {
			t.Errorf("%s: err = %v, want %d:%d: %s", c.name, err, c.line, c.col, c.msg)
		}
	}
}

// TestRequestClashLenient: lenient parsing records one issue per clashing
// declaration, at its `open`, and leaves the declaration out — however
// many clients reach it.
func TestRequestClashLenient(t *testing.T) {
	src := specA + "client c2 at c2 = open r2 { X! . Ka? };\n" +
		"service e = X? . open r9 { Z! } . Ka!;\n"
	f, issues, err := parser.ParseFileLenient(src)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, is := range issues {
		got = append(got, is.Error())
	}
	want := []string{
		"2:23: service b: request r9 is opened with another body than in service a at 1:23",
		"7:23: service e: request r9 is opened with another body than in service a at 1:23",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("issues:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, loc := range []hexpr.Location{"b", "e"} {
		if _, ok := f.Repo[loc]; ok {
			t.Errorf("service %s registered despite its clash", loc)
		}
	}
	if len(f.Repo) != 3 || len(f.Clients) != 2 {
		t.Errorf("registered %d services and %d clients, want 3 and 2", len(f.Repo), len(f.Clients))
	}
}

// TestRequestRepeatsAlike: what the rule allows — two clients opening one
// identifier for different requests, alternative services opening one
// identifier with identical sessions, the copies Cat's canonicalisation
// puts into choice branches — parses, and so do the checked-in specs.
func TestRequestRepeatsAlike(t *testing.T) {
	for _, src := range []string{
		"service s = P?;\nclient c1 at c1 = open r1 { P! };\nclient c2 at c2 = open r1 { P! (+) Q! };",
		"service a = X? . open r9 { P! } . Ka!;\nservice b = Y? . open r9 { P! } . Kb!;\nclient cl at cl = open r9 { P! };",
		"service a = (X? + Y?) . open r9 { P! } . Ka!;",
	} {
		if _, err := parser.ParseFile(src); err != nil {
			t.Errorf("ParseFile(%q): %v", src, err)
		}
	}
	var paths []string
	for _, pattern := range []string{"../../testdata/*.susc", "../../examples/specs/*.susc", "../benchgen/testdata/*.susc"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 6 {
		t.Fatalf("found only %d specs", len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parser.ParseFile(string(src)); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// BenchmarkParseFile parses the incremental workload's spec,
// ChainedClients(6,4,18): 24 services, 18 clients, and every request
// identifier of a level opened by its four alternative services.
func BenchmarkParseFile(b *testing.B) {
	src, err := os.ReadFile("../benchgen/testdata/chained-clients-6-4-18.susc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseFile(string(src)); err != nil {
			b.Fatal(err)
		}
	}
}
