package lambda_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"susc/internal/compliance"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/lambda"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/parser"
)

func mustLam(t *testing.T, src string) lambda.Term {
	t.Helper()
	term, err := parser.ParseLambda(src)
	if err != nil {
		t.Fatal(err)
	}
	return term
}

func TestEvalSessionPingPong(t *testing.T) {
	client := mustLam(t, `select { ping => branch { pong => 7 } }`)
	server := mustLam(t, `branch { ping => select { pong => () } }`)
	res, err := lambda.EvalSession(client, server, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lambda.SessionCompleted {
		t.Fatalf("status = %s", res.Status)
	}
	if n, ok := res.ClientValue.(lambda.IntLit); !ok || n.Value != 7 {
		t.Errorf("client value = %v", res.ClientValue)
	}
	if len(res.Synchronised) != 2 || res.Synchronised[0] != "ping" || res.Synchronised[1] != "pong" {
		t.Errorf("synchronised = %v", res.Synchronised)
	}
}

func TestEvalSessionStuckOnMismatch(t *testing.T) {
	client := mustLam(t, `select { hello => () }`)
	server := mustLam(t, `branch { goodbye => () }`)
	res, err := lambda.EvalSession(client, server, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lambda.SessionStuck {
		t.Fatalf("status = %s, want stuck", res.Status)
	}
	// both sending is stuck too
	server2 := mustLam(t, `select { hello => () }`)
	res, err = lambda.EvalSession(client, server2, 100, nil)
	if err != nil || res.Status != lambda.SessionStuck {
		t.Fatalf("both-send: %v %v", res, err)
	}
	// client waiting on a terminated server is stuck
	res, err = lambda.EvalSession(mustLam(t, `branch { x => () }`), mustLam(t, `()`), 100, nil)
	if err != nil || res.Status != lambda.SessionStuck {
		t.Fatalf("server-gone: %v %v", res, err)
	}
}

func TestEvalSessionClientFinishesFirst(t *testing.T) {
	// the client terminates while the server still wants to talk: success
	client := mustLam(t, `42`)
	server := mustLam(t, `branch { x => () }`)
	res, err := lambda.EvalSession(client, server, 100, nil)
	if err != nil || res.Status != lambda.SessionCompleted {
		t.Fatalf("res = %v, err %v", res, err)
	}
}

func TestEvalSessionHistories(t *testing.T) {
	client := mustLam(t, `enforce phi { fire order(1); select { Buy => branch { Ok => () } } }`)
	server := mustLam(t, `branch { Buy => fire charge(80); select { Ok => () } }`)
	res, err := lambda.EvalSession(client, server, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lambda.SessionCompleted {
		t.Fatalf("status = %s", res.Status)
	}
	want := "[_phi order(1) charge(80) _]phi"
	if res.Hist.String() != want {
		t.Errorf("history = %q, want %q", res.Hist, want)
	}
}

func TestEvalSessionRecursivePump(t *testing.T) {
	client := mustLam(t, `
(rec pump(n: unit): unit .
  select { more => branch { item => pump () }
         | done => () }) ()`)
	server := mustLam(t, `
(rec serve(n: unit): unit .
  branch { more => select { item => serve () }
         | done => () }) ()`)
	// the client picks more/done randomly: all seeds must complete or run
	// out of fuel mid-progress, never get stuck
	for seed := int64(0); seed < 30; seed++ {
		res, err := lambda.EvalSession(client, server, 2000, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == lambda.SessionStuck {
			t.Fatalf("seed %d: recursive pump stuck", seed)
		}
	}
}

func TestEvalSessionOutOfFuel(t *testing.T) {
	client := mustLam(t, `(rec f(x: unit): unit . select { a => f () }) ()`)
	server := mustLam(t, `(rec g(x: unit): unit . branch { a => g () }) ()`)
	res, err := lambda.EvalSession(client, server, 50, nil)
	if err != nil || res.Status != lambda.SessionOutOfFuel {
		t.Fatalf("res = %v, err = %v", res, err)
	}
}

func TestEvalSessionRejectsNestedRequests(t *testing.T) {
	client := mustLam(t, `open r1 { select { a => () } }`)
	if _, err := lambda.EvalSession(client, mustLam(t, `()`), 100, nil); err == nil {
		t.Error("nested requests should be rejected")
	}
}

// TestEvalSessionComplianceSoundness: when the inferred effects are
// compliant, no scheduling of the session evaluation is ever stuck; and
// the session history is always a valid, balanced history when the static
// validity of the combined effects holds. This is the λ-level statement of
// the paper's guarantee.
func TestEvalSessionComplianceSoundness(t *testing.T) {
	srcPairs := []struct {
		client, server string
	}{
		{`select { Req => branch { CoBo => select { Pay => () } | NoAv => () } }`,
			`branch { Req => select { CoBo => branch { Pay => () } | NoAv => () } }`},
		{`(rec p(x: unit): unit . select { a => branch { ack => p () } | q => () }) ()`,
			`(rec s(x: unit): unit . branch { a => select { ack => s () } | q => () }) ()`},
		{`select { hi => () }`, `branch { hi => () | bye => () }`},
	}
	for i, pair := range srcPairs {
		client := mustLam(t, pair.client)
		server := mustLam(t, pair.server)
		_, ceff, err := lambda.InferClosed(client)
		if err != nil {
			t.Fatal(err)
		}
		_, seff, err := lambda.InferClosed(server)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := compliance.Compliant(ceff, seff)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("pair %d should be compliant", i)
		}
		for seed := int64(0); seed < 25; seed++ {
			res, err := lambda.EvalSession(client, server, 2000, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == lambda.SessionStuck {
				t.Fatalf("pair %d seed %d: compliant session stuck", i, seed)
			}
		}
	}
}

// TestEvalSessionHistoryMatchesMonitor: the session history obeys the
// run-time monitor when the programs respect their policies.
func TestEvalSessionHistoryMatchesMonitor(t *testing.T) {
	phi1 := paperex.Phi1()
	client := lambda.Enforce{Policy: phi1.ID(), Body: lambda.Select{Branches: []lambda.CommBranch{
		{Channel: "Go", Body: lambda.Unit{}},
	}}}
	server := lambda.Branch{Branches: []lambda.CommBranch{
		{Channel: "Go", Body: lambda.Fire{Event: hexpr.E(paperex.EvSgn, hexpr.Sym("s3"))}},
	}}
	res, err := lambda.EvalSession(client, server, 100, nil)
	if err != nil || res.Status != lambda.SessionCompleted {
		t.Fatalf("res = %v err %v", res, err)
	}
	m := history.NewMonitor(paperex.Policies())
	if err := m.AppendAll(res.Hist); err != nil {
		t.Errorf("session history rejected by the monitor: %v (history %s)", err, res.Hist)
	}
}

// TestEvalSessionAgreesWithRunNetwork: a two-party session is the network
// run of a client whose one request opens it. EvalSession(client, server)
// and RunNetwork of open r { client } against {s: server} under {r: s},
// given one more step of fuel for the open, agree on the status, the
// synchronised channels, the events and the client's value, for every
// seed and fuel; where both fail, they fail with the same error. A
// finished client ends the session whatever its server does: diverges,
// fails, or opens a request of its own.
func TestEvalSessionAgreesWithRunNetwork(t *testing.T) {
	pairs := []struct{ client, server string }{
		{`select { ping => branch { pong => 7 } }`, `branch { ping => select { pong => () } }`},
		{`select { hello => () }`, `branch { goodbye => () }`},
		{`select { hello => () }`, `select { hello => () }`},
		{`branch { x => () }`, `()`},
		{`42`, `branch { x => () }`},
		{`enforce phi { fire order(1); select { Buy => branch { Ok => () } } }`,
			`branch { Buy => fire charge(80); select { Ok => () } }`},
		{`(rec pump(n: unit): unit . select { more => branch { item => pump () } | done => () }) ()`,
			`(rec serve(n: unit): unit . branch { more => select { item => serve () } | done => () }) ()`},
		{`(rec f(x: unit): unit . select { a => f () }) ()`, `(rec g(x: unit): unit . branch { a => g () }) ()`},
		{`select { Req => branch { CoBo => select { Pay => () } | NoAv => () } }`,
			`branch { Req => select { CoBo => branch { Pay => () } | NoAv => () } }`},
		{`(rec p(x: unit): unit . select { a => branch { ack => p () } | q => () }) ()`,
			`(rec s(x: unit): unit . branch { a => select { ack => s () } | q => () }) ()`},
		{`select { hi => () }`, `branch { hi => () | bye => () }`},
		// mismatched: the client sends a channel the server does not offer
		{`select { a => () | b => () }`, `branch { a => () }`},
		// server gone: the server ends after one exchange the client continues
		{`select { a => branch { b => () } }`, `branch { a => () }`},
		// the client has finished: the server diverges, fails or opens
		{`42`, `(rec f(x: unit): unit . f ()) ()`},
		{`42`, `fire a(); y`},
		{`42`, `open r2 { () }`},
		// the client is paused when the server fails
		{`select { a => () }`, `fire a(); y`},
	}
	plan := network.Plan{"r": "s"}
	for i, pair := range pairs {
		client, server := mustLam(t, pair.client), mustLam(t, pair.server)
		open := lambda.Request{Req: "r", Policy: hexpr.NoPolicy, Body: client}
		repo := lambda.ServiceRepo{"s": server}
		for _, fuel := range []int{5, 17, 60, 2000} {
			for seed := int64(0); seed < 25; seed++ {
				got, gotErr := lambda.EvalSession(client, server, fuel, rand.New(rand.NewSource(seed)))
				want, wantErr := lambda.RunNetwork(open, "c", repo, plan,
					lambda.NetOptions{Fuel: fuel + 1, Rand: rand.New(rand.NewSource(seed))})
				if gotErr != nil || wantErr != nil {
					if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
						t.Errorf("pair %d, fuel %d, seed %d:\n  EvalSession %v, error %v\n  RunNetwork  %v, error %v",
							i, fuel, seed, got, gotErr, want, wantErr)
					}
					continue
				}
				if got.Status != want.Status || !slices.Equal(got.Synchronised, want.Synchronised) ||
					fmt.Sprint(got.Hist.Flat()) != fmt.Sprint(want.Hist.Flat()) ||
					fmt.Sprint(got.ClientValue) != fmt.Sprint(want.ClientValue) {
					t.Errorf("pair %d, fuel %d, seed %d:\n  EvalSession %s %v %v %v\n  RunNetwork  %s %v %v %v",
						i, fuel, seed, got.Status, got.Synchronised, got.Hist.Flat(), got.ClientValue,
						want.Status, want.Synchronised, want.Hist.Flat(), want.ClientValue)
				}
			}
		}
	}
}

// TestSynchDrawsOnceFromTheScheduler: rule Synch draws the sender's
// branch with one rnd.Intn over the branches it offers, per
// synchronisation. A sender offering a, b and c in a loop against a
// receiver taking all three synchronises, under seed s, on the channels
// successive rand.New(rand.NewSource(s)).Intn(3) draws pick, on both
// EvalSession and RunNetwork.
func TestSynchDrawsOnceFromTheScheduler(t *testing.T) {
	sender := mustLam(t, `(rec f(x: unit): unit . select { a => f () | b => f () | c => f () }) ()`)
	receiver := mustLam(t, `(rec g(x: unit): unit . branch { a => g () | b => g () | c => g () }) ()`)
	open := lambda.Request{Req: "r", Policy: hexpr.NoPolicy, Body: sender}
	repo := lambda.ServiceRepo{"s": receiver}
	const fuel = 200
	for seed := int64(0); seed < 20; seed++ {
		session, err := lambda.EvalSession(sender, receiver, fuel, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		net, err := lambda.RunNetwork(open, "c", repo, network.Plan{"r": "s"},
			lambda.NetOptions{Fuel: fuel + 1, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*lambda.NetResult{session, net} {
			draws := rand.New(rand.NewSource(seed))
			want := make([]string, len(res.Synchronised))
			for k := range want {
				want[k] = []string{"a", "b", "c"}[draws.Intn(3)]
			}
			if res.Status != lambda.SessionOutOfFuel || len(want) < 10 || !slices.Equal(res.Synchronised, want) {
				t.Errorf("seed %d: %s after %v, want out-of-fuel after the draws %v", seed, res.Status, res.Synchronised, want)
			}
		}
	}
}
