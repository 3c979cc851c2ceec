package plans_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/budget"
	"susc/internal/memo"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// interleaved is a session whose two sides log events independently: the
// witness of a(3) crosses a state discovered by a move other than its
// parent's first, so a graph flow labelling that state wrongly differs.
const interleaved = `
service s = a(2) . a(3) . m?;
client c at c = open r { a(1) . m! };
`

// flowSources returns every spec under the checked-in fixture directories
// that parses strictly, plus the generated Chained(8,2) and Chained(12,2)
// and the interleaved session.
func flowSources(t *testing.T) map[string]*parser.File {
	t.Helper()
	files := map[string]*parser.File{}
	for _, dir := range []string{
		"../../testdata", "../../examples/specs",
		"../lint/testdata", "../lint/testdata/audit", "../lint/testdata/semantic",
	} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.susc"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if f, err := parser.ParseFile(string(src)); err == nil {
				files[path] = f
			}
		}
	}
	for name, src := range map[string]string{
		"chained(8,2)":  benchgen.ChainedSource(8, 2),
		"chained(12,2)": benchgen.ChainedSource(12, 2),
		"interleaved":   interleaved,
	} {
		f, err := parser.ParseFile(src)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	return files
}

// encodeFlow is verify.EncodeFlow, failing the test on error.
func encodeFlow(t *testing.T, f *verify.PlanFlow) string {
	t.Helper()
	b, err := verify.EncodeFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGraphFlowsAgree pins the flows read off the fused sweep's graph to
// the kernel's: for every client and each of the first 256 valid plans of
// its pruned family (the audit's cap), the family's flow encodes to the
// bytes verify.ExploreFlow's does.
func TestGraphFlowsAgree(t *testing.T) {
	checkGraphFlows(t, false)
}

// TestGraphFlowsAgreeWarm is TestGraphFlowsAgree on a session whose
// verdict tier a plain sweep filled first: the audit's sweep assesses
// nothing, so every flow is replayed on a graph the sweep never built.
func TestGraphFlowsAgreeWarm(t *testing.T) {
	checkGraphFlows(t, true)
}

func checkGraphFlows(t *testing.T, warm bool) {
	flows := 0
	for name, f := range flowSources(t) {
		cache := memo.New()
		for _, c := range f.Clients {
			opts := plans.Options{PruneNonCompliant: true, Cache: cache}
			if warm {
				if _, err := plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, opts); err != nil {
					t.Fatalf("%s/%s: %v", name, c.Name, err)
				}
				opts.Stats = &plans.FusedStats{}
			}
			fam, err := plans.AssessWithFlows(f.Repo, f.Table, c.Loc, c.Expr, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.Name, err)
			}
			if warm && opts.Stats.PlansAssessed.Load() != 0 {
				t.Fatalf("%s/%s: warm sweep assessed %d plans", name, c.Name, opts.Stats.PlansAssessed.Load())
			}
			valid := 0
			for i := 0; i < fam.Len(); i++ {
				if fam.Report(i).Verdict != verify.Valid || valid == 256 {
					continue
				}
				valid++
				plan := fam.Plan(i).Map()
				got, _, err := fam.Flow(i)
				if err != nil {
					t.Fatalf("%s/%s %s: graph flow: %v", name, c.Name, plan, err)
				}
				want, err := verify.ExploreFlow(f.Repo, f.Table, c.Loc, c.Expr, plan,
					verify.Options{Cache: cache})
				if err != nil {
					t.Fatalf("%s/%s %s: kernel flow: %v", name, c.Name, plan, err)
				}
				if g, w := encodeFlow(t, got), encodeFlow(t, want); g != w {
					t.Errorf("%s/%s %s:\ngraph  %s\nkernel %s", name, c.Name, plan, g, w)
				}
				flows++
			}
		}
	}
	if flows < 500 {
		t.Fatalf("only %d flows compared", flows)
	}
	t.Logf("%d graph flows agree with the kernel's", flows)
}

// TestGraphFlowsBudgetAgree: a budget shared by the sweep and the flows
// after it cuts a graph flow where it cuts the kernel's. Each limit runs
// the audit's sequence twice — the sweep, then every valid plan's flow —
// once reading the flows off the graph and once on the kernel; the
// encoded flows must match plan for plan.
func TestGraphFlowsBudgetAgree(t *testing.T) {
	f, err := parser.ParseFile(benchgen.ChainedSource(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	c := f.Clients[0]
	run := func(lim budget.Limits, kernel bool) []string {
		b := budget.New(context.Background(), lim)
		cache := memo.New()
		opts := plans.Options{PruneNonCompliant: true, Cache: cache, Budget: b}
		fam, err := plans.AssessWithFlows(f.Repo, f.Table, c.Loc, c.Expr, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < fam.Len(); i++ {
			if fam.Report(i).Verdict != verify.Valid {
				continue
			}
			plan := fam.Plan(i).Map()
			var flow *verify.PlanFlow
			if kernel {
				flow, err = verify.ExploreFlow(f.Repo, f.Table, c.Loc, c.Expr, plan,
					verify.Options{Cache: cache, Budget: b})
			} else {
				flow, _, err = fam.Flow(i)
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, plan.Key()+" "+encodeFlow(t, flow))
		}
		return out
	}
	full := run(budget.Limits{}, false)
	if len(full) != 16 {
		t.Fatalf("%d valid plans, want 16", len(full))
	}
	cuts := 0
	for n := int64(1); n <= 2000; n += 37 {
		for _, lim := range []budget.Limits{{MaxStates: n}, {MaxEdges: n}} {
			graph, kernel := run(lim, false), run(lim, true)
			if len(graph) != len(kernel) {
				t.Fatalf("%+v: %d graph flows, %d kernel flows", lim, len(graph), len(kernel))
			}
			for i := range graph {
				if graph[i] != kernel[i] {
					t.Fatalf("%+v:\ngraph  %s\nkernel %s", lim, graph[i], kernel[i])
				}
				if graph[i] != full[i] {
					cuts++
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no limit cut a flow short")
	}
}
