// Benchmark harness: one benchmark per reproduced figure/claim of the
// paper (Fig. 1–3, the §2 plan classification) plus parameter sweeps for
// every decision procedure — product-automaton construction, validity
// model checking (with the regularization ablation), plan synthesis
// (with the compliance-pruning ablation), whole-network verification, the
// run-time monitor overhead the paper's result removes, and effect
// inference. EXPERIMENTS.md records representative numbers.
package susc_test

import (
	"bytes"
	"encoding/json"
	"os"

	"fmt"
	"math/rand"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/compliance"
	"susc/internal/contract"
	"susc/internal/engine"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/lambda"
	"susc/internal/lint"
	"susc/internal/lts"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/policy"
	"susc/internal/valid"
	"susc/internal/verify"
)

// --- Figure 1: policy recognition -----------------------------------------

func BenchmarkFig1PolicyRecognition(b *testing.B) {
	phi1 := paperex.Phi1()
	trace := []hexpr.Event{
		hexpr.E(paperex.EvSgn, hexpr.Sym("s4")),
		hexpr.E(paperex.EvPrice, hexpr.Int(50)),
		hexpr.E(paperex.EvRating, hexpr.Int(90)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !phi1.Recognizes(trace) {
			b.Fatal("S4 must violate phi1")
		}
	}
}

// --- Figure 2: the compliance matrix ---------------------------------------

func BenchmarkFig2ComplianceMatrix(b *testing.B) {
	brBody, _, err := contract.RequestBody(paperex.Broker(), "r3")
	if err != nil {
		b.Fatal(err)
	}
	hotels := []hexpr.Expr{paperex.S1(), paperex.S2(), paperex.S3(), paperex.S4()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		okCount := 0
		for _, h := range hotels {
			ok, err := compliance.Compliant(brBody, h)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				okCount++
			}
		}
		if okCount != 3 {
			b.Fatalf("compliant hotels = %d, want 3", okCount)
		}
	}
}

// --- Figure 3: replaying the computation fragment --------------------------

func BenchmarkFig3Run(b *testing.B) {
	plan := network.Plan{"r1": paperex.LocBr, "r3": paperex.LocS3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := network.NewConfig(paperex.Repository(), paperex.Policies(),
			network.Client{Loc: paperex.LocC1, Expr: paperex.C1(), Plan: plan})
		res := cfg.Run(network.RunOptions{Rand: rand.New(rand.NewSource(int64(i)))})
		if res.Status != network.Completed {
			b.Fatalf("run failed: %s", res)
		}
	}
}

// --- §2 plan classification -------------------------------------------------

func BenchmarkSect2PlanClassification(b *testing.B) {
	repo := paperex.Repository()
	table := paperex.Policies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := plans.Synthesize(repo, table, paperex.LocC1, paperex.C1(),
			plans.Options{PruneNonCompliant: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 1 {
			b.Fatalf("valid plans = %d", len(got))
		}
	}
}

// --- B1: product-automaton construction ------------------------------------

func BenchmarkProductAutomaton(b *testing.B) {
	for _, cfg := range []struct{ width, depth int }{
		{2, 2}, {2, 4}, {2, 6}, {4, 2}, {4, 4}, {8, 2},
	} {
		name := fmt.Sprintf("width=%d/depth=%d", cfg.width, cfg.depth)
		b.Run(name, func(b *testing.B) {
			client, server := benchgen.PingPong(cfg.width, cfg.depth)
			var states int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := compliance.NewProduct(client, server)
				if err != nil {
					b.Fatal(err)
				}
				if !p.Empty() {
					b.Fatal("ping-pong pair must be compliant")
				}
				states = len(p.States)
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

func BenchmarkProductLoop(b *testing.B) {
	for _, width := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			client, server := benchgen.LoopContract(width)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := compliance.Compliant(client, server)
				if err != nil || !ok {
					b.Fatalf("loop pair: %v %v", ok, err)
				}
			}
		})
	}
}

// Ablation: the two compliance deciders (Theorem 1 vs Definition 4).
func BenchmarkComplianceDeciders(b *testing.B) {
	client, server := benchgen.PingPong(3, 4)
	b.Run("product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := compliance.Compliant(client, server); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("readysets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := compliance.CompliantReadySets(client, server); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// --- B2: validity model checking --------------------------------------------

func BenchmarkValidity(b *testing.B) {
	for _, cfg := range []struct{ events, nesting int }{
		{10, 1}, {100, 1}, {500, 1}, {100, 4}, {100, 8},
	} {
		e, table := benchgen.EventChain(cfg.events, cfg.nesting)
		b.Run(fmt.Sprintf("events=%d/policies=%d/direct", cfg.events, cfg.nesting), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := valid.Valid(e, table)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("events=%d/policies=%d/automata", cfg.events, cfg.nesting), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := valid.ModelCheck(e, table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: redundant nested framings with and without regularization.
func BenchmarkRegularization(b *testing.B) {
	e, table := benchgen.RedundantFramings(50, 12)
	b.Run("with-regularization", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg := valid.Regularize(e)
			ok, err := valid.Valid(reg, table)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("without-regularization", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, err := valid.Valid(e, table)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("regularize-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if valid.FramingDepth(valid.Regularize(e)) != 1 {
				b.Fatal("regularization should collapse the nest")
			}
		}
	})
}

// --- B3: plan synthesis -------------------------------------------------------

func BenchmarkPlanSynthesis(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		w := benchgen.Hotels(n)
		for _, pruned := range []bool{true, false} {
			name := fmt.Sprintf("hotels=%d/pruned=%v", n, pruned)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					got, err := plans.Synthesize(w.Repo, w.Table, w.Loc, w.Client,
						plans.Options{PruneNonCompliant: pruned})
					if err != nil {
						b.Fatal(err)
					}
					if len(got) == 0 {
						b.Fatal("no valid plan found")
					}
				}
			})
		}
	}
}

// BenchmarkPlanSynthesisChained scales the request dimension: fanout^depth
// complete plans over a chained-brokers repository with heavily shared
// state. The fused engine expands the shared configuration graph once and
// replays plans over it (BENCH_pr2.json records the headline comparison
// against the per-plan engine, now the tests' oracle).
func BenchmarkPlanSynthesisChained(b *testing.B) {
	for _, cfg := range []struct{ depth, fanout int }{
		{2, 4}, {4, 4}, {12, 2},
	} {
		w := benchgen.Chained(cfg.depth, cfg.fanout)
		b.Run(fmt.Sprintf("depth=%d/fanout=%d", cfg.depth, cfg.fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
					plans.Options{PruneNonCompliant: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(as) != w.PlanCount {
					b.Fatalf("plans = %d, want %d", len(as), w.PlanCount)
				}
			}
		})
	}
}

// BenchmarkPlansNovelGuarded is serve-mix's novel plans request without
// HTTP: a guarded Chained(8,2) whose deny set is drawn afresh for every
// request (each service with probability 1/4, from a fixed seed), parsed
// and streamed through one engine.Session's AssessStream, as `susc serve`
// answers it. Its 256 plans pass no report tier, and most fail at their
// first denied binding, so each request builds a graph of tens to
// hundreds of nodes. Drawing and rendering the text is not timed.
func BenchmarkPlansNovelGuarded(b *testing.B) {
	s, err := engine.Open("")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var deny []hexpr.Location
		for level := 1; level <= 8; level++ {
			for col := 0; col < 2; col++ {
				if rng.Intn(4) == 0 {
					deny = append(deny, hexpr.Location(fmt.Sprintf("s%d_%d", level, col)))
				}
			}
		}
		src := benchgen.GuardedChainedSource(8, 2, deny)
		b.StartTimer()
		f, err := parser.ParseFile(src)
		if err != nil {
			b.Fatal(err)
		}
		c, err := f.Client("cl")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = s.AssessStream(f, c, plans.Options{PruneNonCompliant: true},
			func(plans.Assessment) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != 256 {
			b.Fatalf("plans = %d, want 256", n)
		}
	}
}

// BenchmarkPlansWarmJSON is the plans-chained benchmark workload's warm op
// without its harness: Chained(12,2) through one engine.Session whose
// memory tier already holds every verdict, so an op is the sweep
// (enumeration, plan keys, report-tier lookups) and a json.Encoder record
// of every engine.ToPlanEntry, the `susc plans -json -stream` record
// shape. Parsing is outside the timer.
func BenchmarkPlansWarmJSON(b *testing.B) {
	f, err := parser.ParseFile(benchgen.ChainedSource(12, 2))
	if err != nil {
		b.Fatal(err)
	}
	c, err := f.Client("cl")
	if err != nil {
		b.Fatal(err)
	}
	s, err := engine.Open("")
	if err != nil {
		b.Fatal(err)
	}
	opts := plans.Options{PruneNonCompliant: true}
	if _, err := s.Assess(f, c, opts); err != nil { // the cold op fills the memory tier
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as, err := s.Assess(f, c, opts)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		enc := json.NewEncoder(&buf)
		for _, a := range as {
			if err := enc.Encode(engine.ToPlanEntry(a)); err != nil {
				b.Fatal(err)
			}
		}
		if len(as) != 4096 {
			b.Fatalf("plans = %d, want 4096", len(as))
		}
	}
}

// --- B4: whole-plan verification ---------------------------------------------

func BenchmarkVerifyCheckPlan(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		w := benchgen.Hotels(n)
		b.Run(fmt.Sprintf("hotels=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				r, err := verify.CheckPlan(w.Repo, w.Table, w.Loc, w.Client, w.GoodPlan)
				if err != nil {
					b.Fatal(err)
				}
				if r.Verdict != verify.Valid {
					b.Fatalf("plan should be valid: %s", r)
				}
				states = r.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkAuditChained is the whole-family flow audit (`susc audit`) of
// Chained(10,2): the fused sweep classifies its 1024 plans, and the first
// 256 valid ones (the audit's cap) get their flows read off the sweep's
// graph.
func BenchmarkAuditChained(b *testing.B) {
	src := benchgen.ChainedSource(10, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := lint.AuditSource(src, lint.Options{})
		if len(res.Diagnostics) != 0 || len(res.Coverage) != 1 {
			b.Fatalf("audit: %d findings, %d coverage records; want 0, 1",
				len(res.Diagnostics), len(res.Coverage))
		}
		if cc := res.Coverage[0]; cc.ValidPlans != 1024 || cc.Audited != 256 {
			b.Fatalf("audit: %d valid, %d audited; want 1024, 256", cc.ValidPlans, cc.Audited)
		}
	}
}

// BenchmarkLintSemanticClients is the lint run of `susc checkall` on
// ChainedClients(6,4,18), the incremental-clients benchmark workload:
// every analyzer, warnings and above, on a fresh cache. No declaration
// frames a policy and every client's 4096-plan family is past SUSC013's
// cap, so the suite reports nothing.
func BenchmarkLintSemanticClients(b *testing.B) {
	f, err := parser.ParseFile(benchgen.ChainedClientsSource(6, 4, 18))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags := lint.Run(f, nil, lint.Options{Analyzers: lint.AllAnalyzers(),
			MinSeverity: lint.Warning, Cache: memo.New()})
		if len(diags) != 0 {
			b.Fatalf("lint: %d findings, want none: %v", len(diags), diags[0])
		}
	}
}

// --- B5: the run-time monitor the paper makes unnecessary ---------------------

func BenchmarkMonitor(b *testing.B) {
	w := benchgen.Hotels(8)
	for _, monitored := range []bool{false, true} {
		name := "off"
		if monitored {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := network.NewConfig(w.Repo, w.Table,
					network.Client{Loc: w.Loc, Expr: w.Client, Plan: w.GoodPlan})
				res := cfg.Run(network.RunOptions{
					Monitored: monitored,
					Rand:      rand.New(rand.NewSource(int64(i))),
				})
				if res.Status != network.Completed {
					b.Fatalf("run: %s", res)
				}
			}
		})
	}
}

// Monitor per-item cost in isolation.
func BenchmarkMonitorAppend(b *testing.B) {
	table := paperex.Policies()
	phi1 := paperex.Phi1().ID()
	items := []history.Item{
		history.OpenItem(phi1),
		history.EventItem(hexpr.E(paperex.EvSgn, hexpr.Sym("s3"))),
		history.EventItem(hexpr.E(paperex.EvPrice, hexpr.Int(90))),
		history.EventItem(hexpr.E(paperex.EvRating, hexpr.Int(100))),
		history.CloseItem(phi1),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := history.NewMonitor(table)
		for _, it := range items {
			if err := m.Append(it); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- B6: effect inference -------------------------------------------------------

func BenchmarkEffectInference(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		prog := benchgen.LambdaChain(n)
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := lambda.InferClosed(prog)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks --------------------------------------------------

func BenchmarkUsageAutomatonStep(b *testing.B) {
	phi1 := paperex.Phi1()
	ev := hexpr.E(paperex.EvSgn, hexpr.Sym("s9"))
	s := phi1.Initial()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = phi1.Step(phi1.Initial(), ev)
	}
	_ = s
}

func BenchmarkProjection(b *testing.B) {
	br := paperex.Broker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		contract.Project(br)
	}
}

func BenchmarkPolicyTableLookup(b *testing.B) {
	table := paperex.Policies()
	id := paperex.Phi1().ID()
	trace := []hexpr.Event{hexpr.E(paperex.EvSgn, hexpr.Sym("s1"))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !table.Violates(id, trace) {
			b.Fatal("s1 is blacklisted")
		}
	}
}

var _ = policy.NewTable // keep the import in the file's vocabulary

// --- extension benchmarks -----------------------------------------------------

func BenchmarkSubstitutable(b *testing.B) {
	for _, width := range []int{2, 8, 32} {
		oldSvc, _ := benchgen.LoopContract(width)
		// the new service drops the last looping output
		newSvc, _ := benchgen.LoopContract(width - 1)
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ok, err := compliance.Substitutable(oldSvc, newSvc)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

func BenchmarkBisimulationMinimize(b *testing.B) {
	client, _ := benchgen.PingPong(4, 5)
	l, err := lts.Build(client)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Minimize()
	}
	b.ReportMetric(float64(l.Len()), "states")
}

func BenchmarkParserFile(b *testing.B) {
	src, err := os.ReadFile("testdata/hotel.susc")
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

func BenchmarkLambdaSession(b *testing.B) {
	client := parser.MustParseLambda(
		`(rec p(x: unit): unit . select { m => branch { a => p () } | q => () }) ()`)
	server := parser.MustParseLambda(
		`(rec s(x: unit): unit . branch { m => select { a => s () } | q => () }) ()`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := lambda.EvalSession(client, server, 5000, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if res.Status == lambda.SessionStuck {
			b.Fatal("compliant session stuck")
		}
	}
}

func BenchmarkCheckNetworkSharedCapacity(b *testing.B) {
	repo := network.Repository{
		"A": hexpr.RecvThen("hello", hexpr.Eps()),
		"B": hexpr.RecvThen("hello", hexpr.Eps()),
	}
	mk := func(r1, r2 hexpr.RequestID, a, bb hexpr.Location) verify.ClientSpec {
		return verify.ClientSpec{
			Loc: hexpr.Location("c" + r1),
			Client: hexpr.Open(r1, hexpr.NoPolicy,
				hexpr.SendThen("hello",
					hexpr.Open(r2, hexpr.NoPolicy, hexpr.SendThen("hello", hexpr.Eps())))),
			Plan: network.Plan{r1: a, r2: bb},
		}
	}
	clients := []verify.ClientSpec{
		mk("r1", "r2", "A", "B"),
		mk("r3", "r4", "B", "A"),
	}
	table := paperex.Policies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := verify.CheckNetwork(repo, table, clients,
			verify.Options{Capacities: map[hexpr.Location]int{"A": 2, "B": 2}})
		if err != nil {
			b.Fatal(err)
		}
		if r.Verdict != verify.Valid {
			b.Fatalf("verdict %s", r)
		}
	}
}

// --- the λ network runtime -----------------------------------------------------

func BenchmarkLambdaRunNetwork(b *testing.B) {
	client := parser.MustParseLambda(`
open r1 {
  select { Req => branch { CoBo => select { Pay => () } | NoAv => () } }
}`)
	broker := parser.MustParseLambda(`
branch { Req =>
  open r3 { select { IdC => branch { Bok => () | UnA => () } } };
  select { CoBo => branch { Pay => () } | NoAv => () }
}`)
	hotel := parser.MustParseLambda(`
fire sgn(s3); fire price(90); fire rating(100);
branch { IdC => select { Bok => () | UnA => () } }`)
	repo := lambda.ServiceRepo{"br": broker, "s3": hotel}
	plan := network.Plan{"r1": "br", "r3": "s3"}
	for _, monitored := range []bool{false, true} {
		name := "monitor-off"
		if monitored {
			name = "monitor-on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := lambda.RunNetwork(client, "c1", repo, plan, lambda.NetOptions{
					Rand: rand.New(rand.NewSource(int64(i))), Monitored: monitored,
					Table: paperex.Policies(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != lambda.SessionCompleted {
					b.Fatalf("status %s", res.Status)
				}
			}
		})
	}
}

// BenchmarkPlanSynthesisCached measures repeated synthesis over an
// unchanged repository with a shared memo.Cache — the steady-state cost a
// long-lived tool pays per query once verdicts, products, projections and
// step sets are warm. The hit% metric is the cache hit rate over the whole
// run.
func BenchmarkPlanSynthesisCached(b *testing.B) {
	for _, n := range []int{32, 64} {
		w := benchgen.Hotels(n)
		b.Run(fmt.Sprintf("hotels=%d", n), func(b *testing.B) {
			cache := memo.New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
					plans.Options{PruneNonCompliant: true, Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				if len(as) == 0 {
					b.Fatal("no plans")
				}
			}
			st := cache.Stats()
			b.ReportMetric(st.HitRate()*100, "hit%")
			b.ReportMetric(float64(st.Hits()+st.Misses()), "lookups")
		})
	}
}
