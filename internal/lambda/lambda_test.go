package lambda_test

import (
	"errors"
	"strings"
	"testing"

	"susc/internal/compliance"
	"susc/internal/hexpr"
	"susc/internal/lambda"
	"susc/internal/lts"
	"susc/internal/paperex"
	"susc/internal/valid"
)

func mustInfer(t *testing.T, term lambda.Term) (lambda.Type, hexpr.Expr) {
	t.Helper()
	ty, eff, err := lambda.InferClosed(term)
	if err != nil {
		t.Fatalf("InferClosed(%s): %v", term, err)
	}
	return ty, eff
}

func TestInferBasics(t *testing.T) {
	ty, eff := mustInfer(t, lambda.Unit{})
	if _, ok := ty.(lambda.UnitT); !ok || !hexpr.IsNil(eff) {
		t.Errorf("unit: %s / %s", ty, eff.Key())
	}
	ty, eff = mustInfer(t, lambda.IntLit{Value: 42})
	if _, ok := ty.(lambda.IntT); !ok || !hexpr.IsNil(eff) {
		t.Errorf("int: %s / %s", ty, eff.Key())
	}
	ty, eff = mustInfer(t, lambda.Fire{Event: hexpr.E("sgn", hexpr.Int(1))})
	if _, ok := ty.(lambda.UnitT); !ok || eff.Key() != "sgn(1)" {
		t.Errorf("fire: %s / %s", ty, eff.Key())
	}
}

func TestInferSeqAndLet(t *testing.T) {
	term := lambda.Seq{
		First: lambda.Fire{Event: hexpr.E("a")},
		Then: lambda.Let{
			Name: "x",
			Bind: lambda.IntLit{Value: 1},
			Body: lambda.Fire{Event: hexpr.E("b")},
		},
	}
	_, eff := mustInfer(t, term)
	want := hexpr.Cat(hexpr.Act(hexpr.E("a")), hexpr.Act(hexpr.E("b")))
	if !hexpr.Equal(eff, want) {
		t.Errorf("effect = %s, want %s", eff.Key(), want.Key())
	}
}

func TestInferLatentEffects(t *testing.T) {
	// (λx:unit. fire a) (): the event fires at application, not definition
	fn := lambda.Abs{Param: "x", ParamType: lambda.UnitT{}, Body: lambda.Fire{Event: hexpr.E("a")}}
	_, effDef := mustInfer(t, fn)
	if !hexpr.IsNil(effDef) {
		t.Errorf("abstraction effect = %s, want eps", effDef.Key())
	}
	_, effApp := mustInfer(t, lambda.App{Fn: fn, Arg: lambda.Unit{}})
	if effApp.Key() != "a" {
		t.Errorf("application effect = %s, want a", effApp.Key())
	}
}

func TestInferEnforceAndRequest(t *testing.T) {
	term := lambda.Enforce{Policy: "phi", Body: lambda.Fire{Event: hexpr.E("a")}}
	_, eff := mustInfer(t, term)
	want := hexpr.Frame("phi", hexpr.Act(hexpr.E("a")))
	if !hexpr.Equal(eff, want) {
		t.Errorf("enforce effect = %s", eff.Key())
	}
	req := lambda.Request{Req: "r1", Policy: "phi",
		Body: lambda.Select{Branches: []lambda.CommBranch{{Channel: "Req", Body: lambda.Unit{}}}}}
	_, eff = mustInfer(t, req)
	want = hexpr.Open("r1", "phi", hexpr.SendThen("Req", hexpr.Eps()))
	if !hexpr.Equal(eff, want) {
		t.Errorf("request effect = %s, want %s", eff.Key(), want.Key())
	}
}

func TestInferSelectBranch(t *testing.T) {
	sel := lambda.Select{Branches: []lambda.CommBranch{
		{Channel: "Bok", Body: lambda.Unit{}},
		{Channel: "UnA", Body: lambda.Unit{}},
	}}
	_, eff := mustInfer(t, sel)
	want := hexpr.IntCh(
		hexpr.B(hexpr.Out("Bok"), hexpr.Eps()),
		hexpr.B(hexpr.Out("UnA"), hexpr.Eps()),
	)
	if !hexpr.Equal(eff, want) {
		t.Errorf("select effect = %s, want %s", eff.Key(), want.Key())
	}
	br := lambda.Branch{Branches: []lambda.CommBranch{
		{Channel: "Bok", Body: lambda.Fire{Event: hexpr.E("ok")}},
		{Channel: "UnA", Body: lambda.Unit{}},
	}}
	_, eff = mustInfer(t, br)
	want = hexpr.Ext(
		hexpr.B(hexpr.In("Bok"), hexpr.Act(hexpr.E("ok"))),
		hexpr.B(hexpr.In("UnA"), hexpr.Eps()),
	)
	if !hexpr.Equal(eff, want) {
		t.Errorf("branch effect = %s, want %s", eff.Key(), want.Key())
	}
}

func TestInferRecursion(t *testing.T) {
	// rec f(x:unit):unit. select { ping! => branch { pong? => f () } | stop! => () }
	f := lambda.RecFun{
		Name: "f", Param: "x", ParamType: lambda.UnitT{}, Result: lambda.UnitT{},
		Body: lambda.Select{Branches: []lambda.CommBranch{
			{Channel: "ping", Body: lambda.Branch{Branches: []lambda.CommBranch{
				{Channel: "pong", Body: lambda.App{Fn: lambda.Var{Name: "f"}, Arg: lambda.Unit{}}},
			}}},
			{Channel: "stop", Body: lambda.Unit{}},
		}},
	}
	_, eff := mustInfer(t, lambda.App{Fn: f, Arg: lambda.Unit{}})
	// effect: μh. (ping! . pong? . h) ⊕ stop!
	rec, ok := eff.(hexpr.Rec)
	if !ok {
		t.Fatalf("effect = %s, want a recursion", eff.Key())
	}
	if err := hexpr.Check(eff); err != nil {
		t.Fatalf("effect ill-formed: %v", err)
	}
	l, err := lts.Build(eff)
	if err != nil {
		t.Fatal(err)
	}
	if !l.CanReachTermination(0) {
		t.Error("stop! branch should terminate")
	}
	_ = rec
}

func TestInferRejectsNonTailRecursion(t *testing.T) {
	// rec f(x). select { a! => (f x; fire b) }: the recursive call is not
	// in tail position.
	f := lambda.RecFun{
		Name: "f", Param: "x", ParamType: lambda.UnitT{}, Result: lambda.UnitT{},
		Body: lambda.Select{Branches: []lambda.CommBranch{
			{Channel: "a", Body: lambda.Seq{
				First: lambda.App{Fn: lambda.Var{Name: "f"}, Arg: lambda.Var{Name: "x"}},
				Then:  lambda.Fire{Event: hexpr.E("b")},
			}},
		}},
	}
	_, _, err := lambda.InferClosed(f)
	if err == nil || !strings.Contains(err.Error(), "tail") {
		t.Errorf("err = %v, want non-tail rejection", err)
	}
}

func TestInferRejectsUnguardedRecursion(t *testing.T) {
	// rec f(x). f x: no communication guard.
	f := lambda.RecFun{
		Name: "f", Param: "x", ParamType: lambda.UnitT{}, Result: lambda.UnitT{},
		Body: lambda.App{Fn: lambda.Var{Name: "f"}, Arg: lambda.Var{Name: "x"}},
	}
	_, _, err := lambda.InferClosed(f)
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Errorf("err = %v, want unguarded rejection", err)
	}
}

func TestInferErrors(t *testing.T) {
	cases := []struct {
		term lambda.Term
		msg  string
	}{
		{lambda.Var{Name: "x"}, "unbound variable"},
		{lambda.App{Fn: lambda.Unit{}, Arg: lambda.Unit{}}, "non-function"},
		{lambda.App{
			Fn:  lambda.Abs{Param: "x", ParamType: lambda.IntT{}, Body: lambda.Var{Name: "x"}},
			Arg: lambda.Unit{},
		}, "does not match parameter type"},
		{lambda.Select{}, "empty communication choice"},
		{lambda.Select{Branches: []lambda.CommBranch{
			{Channel: "a", Body: lambda.Unit{}},
			{Channel: "a", Body: lambda.Unit{}},
		}}, "duplicate channel"},
		{lambda.Select{Branches: []lambda.CommBranch{
			{Channel: "a", Body: lambda.Unit{}},
			{Channel: "b", Body: lambda.IntLit{Value: 1}},
		}}, "branch types differ"},
		{lambda.RecFun{Name: "f", Param: "x", ParamType: lambda.UnitT{},
			Result: lambda.IntT{}, Body: lambda.Unit{}}, "does not match declared result"},
	}
	for _, c := range cases {
		_, _, err := lambda.InferClosed(c.term)
		if err == nil {
			t.Errorf("InferClosed(%s) succeeded, want %q", c.term, c.msg)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("InferClosed(%s) = %v, want mention of %q", c.term, err, c.msg)
		}
	}
}

// TestClientProgramMatchesPaperContract: a λ-program whose inferred effect
// is exactly the paper's client C1, end to end through compliance.
func TestClientProgramMatchesPaperContract(t *testing.T) {
	prog := lambda.Request{
		Req:    "r1",
		Policy: paperex.Phi1().ID(),
		Body: lambda.Select{Branches: []lambda.CommBranch{
			{Channel: "Req", Body: lambda.Branch{Branches: []lambda.CommBranch{
				{Channel: "CoBo", Body: lambda.Select{Branches: []lambda.CommBranch{
					{Channel: "Pay", Body: lambda.Unit{}},
				}}},
				{Channel: "NoAv", Body: lambda.Unit{}},
			}}},
		}},
	}
	_, eff := mustInfer(t, prog)
	if !hexpr.Equal(eff, paperex.C1()) {
		t.Fatalf("inferred effect = %s, want C1 = %s", eff.Key(), paperex.C1().Key())
	}
	// The extracted behaviour is compliant with the broker.
	body, _, _ := effRequestBody(eff)
	ok, err := compliance.Compliant(body, paperex.Broker())
	if err != nil || !ok {
		t.Errorf("compliance of extracted effect: %v %v", ok, err)
	}
}

func effRequestBody(e hexpr.Expr) (hexpr.Expr, hexpr.PolicyID, bool) {
	if s, ok := e.(hexpr.Session); ok {
		return s.Body, s.Policy, true
	}
	return nil, hexpr.NoPolicy, false
}

// TestEffectSoundness: for communication-free programs, the history
// produced by evaluation is valid iff the statically checked effect is —
// and the produced events are a trace of the effect's LTS.
func TestEffectSoundness(t *testing.T) {
	phi := paperex.Phi1()
	table := paperex.Policies()
	prog := lambda.Seq{
		First: lambda.Enforce{Policy: phi.ID(), Body: lambda.Seq{
			First: lambda.Fire{Event: hexpr.E(paperex.EvSgn, hexpr.Sym("s3"))},
			Then: lambda.Seq{
				First: lambda.Fire{Event: hexpr.E(paperex.EvPrice, hexpr.Int(90))},
				Then:  lambda.Fire{Event: hexpr.E(paperex.EvRating, hexpr.Int(100))},
			},
		}},
		Then: lambda.Unit{},
	}
	_, eff := mustInfer(t, prog)
	okStatic, err := valid.Valid(eff, table)
	if err != nil {
		t.Fatal(err)
	}
	if !okStatic {
		t.Fatal("effect should be statically valid (s3 satisfies phi1)")
	}
	_, hist, err := lambda.Eval(prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Flat()) != 3 {
		t.Errorf("history = %s", hist)
	}
	// The run's history must be a trace of the effect's LTS.
	l, err := lts.Build(eff)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range l.Traces(len(hist)) {
		if traceMatches(tr, hist) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("run history %s is not a trace of the effect", hist)
	}
}

func traceMatches(tr lts.Trace, h interface{ String() string }) bool {
	// compare via history rendering of the labels
	items := historyOfTrace(tr)
	return items == h.String()
}

func historyOfTrace(tr lts.Trace) string {
	parts := make([]string, 0, len(tr))
	for _, l := range tr {
		switch l.Kind {
		case hexpr.LEvent:
			parts = append(parts, l.Event.String())
		case hexpr.LFrameOpen, hexpr.LOpen:
			if l.Policy != hexpr.NoPolicy {
				parts = append(parts, "[_"+string(l.Policy))
			}
		case hexpr.LFrameClose, hexpr.LClose:
			if l.Policy != hexpr.NoPolicy {
				parts = append(parts, "_]"+string(l.Policy))
			}
		default:
			return "\x00mismatch"
		}
	}
	return strings.Join(parts, " ")
}

func TestEvalBasics(t *testing.T) {
	v, hist, err := lambda.Eval(lambda.Seq{
		First: lambda.Fire{Event: hexpr.E("a")},
		Then:  lambda.IntLit{Value: 7},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := v.(lambda.IntLit); !ok || n.Value != 7 {
		t.Errorf("value = %s", v)
	}
	if hist.String() != "a" {
		t.Errorf("history = %s", hist)
	}
}

func TestEvalApplication(t *testing.T) {
	// (λx:int. fire a; x) 5
	term := lambda.App{
		Fn: lambda.Abs{Param: "x", ParamType: lambda.IntT{},
			Body: lambda.Seq{First: lambda.Fire{Event: hexpr.E("a")}, Then: lambda.Var{Name: "x"}}},
		Arg: lambda.IntLit{Value: 5},
	}
	v, hist, err := lambda.Eval(term, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := v.(lambda.IntLit); !ok || n.Value != 5 {
		t.Errorf("value = %s", v)
	}
	if hist.String() != "a" {
		t.Errorf("history = %s", hist)
	}
}

func TestEvalOutOfFuel(t *testing.T) {
	// rec f(x). f x diverges (ill-typed as an effect, but evaluable).
	f := lambda.RecFun{Name: "f", Param: "x", ParamType: lambda.UnitT{}, Result: lambda.UnitT{},
		Body: lambda.App{Fn: lambda.Var{Name: "f"}, Arg: lambda.Var{Name: "x"}}}
	loop := lambda.App{Fn: f, Arg: lambda.Unit{}}
	_, _, err := lambda.Eval(loop, 50)
	if err == nil || !strings.Contains(err.Error(), "fuel") {
		t.Errorf("err = %v, want out-of-fuel", err)
	}
	// the error names the term no fuel was left to evaluate
	for fuel, in := range []string{
		"((rec f(x:unit):unit. (f x)) ())",
		"(rec f(x:unit):unit. (f x))",
		"()",
		"((rec f(x:unit):unit. (f x)) ())",
		"(rec f(x:unit):unit. (f x))",
	} {
		_, _, err := lambda.Eval(loop, fuel)
		var ee *lambda.EvalError
		if want := "lambda: eval: out of fuel: in " + in; !errors.As(err, &ee) || err.Error() != want {
			t.Errorf("fuel %d: err = %v, want %s", fuel, err, want)
		}
	}
}

func TestEvalRejectsCommunication(t *testing.T) {
	_, _, err := lambda.Eval(lambda.Select{Branches: []lambda.CommBranch{
		{Channel: "a", Body: lambda.Unit{}},
	}}, 10)
	if err == nil || !strings.Contains(err.Error(), "session partner") {
		t.Errorf("err = %v", err)
	}
	// the error names the select, branch or open, after substitution
	for _, c := range []struct{ src, in string }{
		{`fire a(); select { a => () | b => 1 }`, `select { a! => () | b! => 1 }`},
		{`let x = 5 in branch { a => x }`, `branch { a? => 5 }`},
		{`enforce phi { open r1 with phi { () } }`, `open r1 with phi { () }`},
		{`(fun x: int . open r2 { fire b(x) }) 3`, `open r2 { fire b(x) }`},
	} {
		v, hist, err := lambda.Eval(mustLam(t, c.src), 100)
		var ee *lambda.EvalError
		want := "lambda: eval: communication requires a session partner: in " + c.in
		if !errors.As(err, &ee) || err.Error() != want || v != nil || hist != nil {
			t.Errorf("%s: Eval = %v, %v, %v; want error %s", c.src, v, hist, err, want)
		}
	}
}

func TestTypeStringsAndEquality(t *testing.T) {
	f := lambda.FunT{Param: lambda.UnitT{}, Effect: hexpr.Act(hexpr.E("a")), Result: lambda.IntT{}}
	if f.String() == "" {
		t.Error("empty type string")
	}
	if !lambda.TypeEqual(f, f) {
		t.Error("type not equal to itself")
	}
	g := lambda.FunT{Param: lambda.UnitT{}, Effect: hexpr.Eps(), Result: lambda.IntT{}}
	if lambda.TypeEqual(f, g) {
		t.Error("different latent effects must distinguish types")
	}
	if lambda.TypeEqual(lambda.UnitT{}, lambda.IntT{}) || !lambda.TypeEqual(lambda.SymT{}, lambda.SymT{}) {
		t.Error("base type equality wrong")
	}
}
