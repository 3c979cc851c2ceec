package verify_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/memo"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// agreementSources returns every spec under the checked-in fixture
// directories that parses strictly, plus a generated Chained(8,2). The
// second result marks the sources whose plan space is walked pruned: the
// chain's. The fixtures are small enough to walk whole, which also
// reaches the non-compliant plans pruning drops.
func agreementSources(t *testing.T) (map[string]*parser.File, map[string]bool) {
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
	f, err := parser.ParseFile(benchgen.ChainedSource(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	files["chained(8,2)"] = f
	return files, map[string]bool{"chained(8,2)": true}
}

// TestExplorationsAgree holds the three readings of one state space to
// each other: for every plan of every client, the flow audit's
// exploration reaches the plan check's verdict after the same number of
// states, and a one-client network check renders the plan check's
// report, with the client's location prefixed to a static witness.
func TestExplorationsAgree(t *testing.T) {
	flows, nets := 0, 0
	files, pruned := agreementSources(t)
	for name, f := range files {
		cache := memo.New()
		for _, c := range f.Clients {
			as, err := plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr,
				plans.Options{PruneNonCompliant: pruned[name], Cache: cache})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.Name, err)
			}
			for _, a := range as {
				at := fmt.Sprintf("%s/%s %s", name, c.Name, a.Plan)
				check, err := verify.CheckPlanOpts(f.Repo, f.Table, c.Loc, c.Expr, a.Plan.Map(),
					verify.Options{Cache: cache})
				if err != nil {
					t.Fatalf("%s: check: %v", at, err)
				}

				flow, err := verify.ExploreFlow(f.Repo, f.Table, c.Loc, c.Expr, a.Plan.Map(),
					verify.Options{Cache: cache})
				if err != nil {
					t.Fatalf("%s: flow: %v", at, err)
				}
				if flow.Verdict != check.Verdict.String() || flow.States != check.States {
					t.Errorf("%s: flow %s after %d states, check %s", at, flow.Verdict, flow.States, check)
				}
				var reason string
				switch check.Verdict {
				case verify.SecurityViolation:
					reason = fmt.Sprintf("policy %s violated", check.Policy)
				case verify.CommunicationDeadlock:
					reason = check.StuckTree
				case verify.NotCompliant, verify.UnboundedNesting:
					reason = check.Witness
				}
				if flow.Reason != reason {
					t.Errorf("%s: flow reason %q, check %q", at, flow.Reason, reason)
				}
				flows++

				net, err := verify.CheckNetwork(f.Repo, f.Table,
					[]verify.ClientSpec{{Loc: c.Loc, Client: c.Expr, Plan: a.Plan.Map()}},
					verify.Options{Cache: cache})
				if err != nil {
					t.Fatalf("%s: network: %v", at, err)
				}
				want := *check
				switch check.Verdict {
				case verify.NotCompliant:
					want.Witness = fmt.Sprintf("client at %s, %s", c.Loc, check.Witness)
				case verify.UnboundedNesting:
					want.Witness = fmt.Sprintf("client at %s: %s", c.Loc, check.Witness)
				}
				for _, render := range []func(*verify.Report) string{
					(*verify.Report).String,
					func(r *verify.Report) string {
						b, err := r.MarshalJSON()
						if err != nil {
							t.Fatal(err)
						}
						return string(b)
					},
				} {
					if got, want := render(net), render(&want); got != want {
						t.Errorf("%s: network\n  %s\nwant\n  %s", at, got, want)
					}
				}
				nets++
			}
		}
	}
	if flows == 0 {
		t.Fatal("no plans explored")
	}
	t.Logf("%d flow/check and %d network/check triples agree", flows, nets)
}
