package benchgen_test

import (
	"os"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// TestChainedPlanSpace: the pruned plan space of Chained(depth, fanout) is
// exactly fanout^depth — every plan binds each level's request to one of
// that level's services — and every plan is valid.
func TestChainedPlanSpace(t *testing.T) {
	for _, tc := range []struct{ depth, fanout int }{
		{1, 3}, {2, 2}, {2, 3}, {3, 2},
	} {
		w := benchgen.Chained(tc.depth, tc.fanout)
		want := 1
		for i := 0; i < tc.depth; i++ {
			want *= tc.fanout
		}
		if w.PlanCount != want {
			t.Fatalf("Chained(%d,%d).PlanCount = %d, want %d",
				tc.depth, tc.fanout, w.PlanCount, want)
		}
		if len(w.Requests) != tc.depth {
			t.Fatalf("Chained(%d,%d) has %d requests", tc.depth, tc.fanout, len(w.Requests))
		}
		as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client,
			plans.Options{PruneNonCompliant: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(as) != want {
			t.Fatalf("Chained(%d,%d): %d pruned plans, want %d",
				tc.depth, tc.fanout, len(as), want)
		}
		for _, a := range as {
			if a.Report.Verdict != verify.Valid {
				t.Fatalf("Chained(%d,%d): plan %s is %s, want valid",
					tc.depth, tc.fanout, a.Plan, a.Report)
			}
		}
	}
}

// TestChainedSourceRoundTrips: the surface rendering of a Chained world
// parses back to a specification with the same repository, the same
// planless client, and the same pruned plan space. A checked-in fixture
// of a configuration must equal the rendering byte for byte.
func TestChainedSourceRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		depth, fanout int
		fixture       string
	}{
		{3, 2, ""},
		{12, 2, "testdata/chained-12-2.susc"},
	} {
		src := benchgen.ChainedSource(tc.depth, tc.fanout)
		if tc.fixture != "" {
			assertFixture(t, tc.fixture, src)
		}
		f, err := parser.ParseFile(src)
		if err != nil {
			t.Fatalf("ChainedSource does not parse: %v\n%s", err, src)
		}
		w := benchgen.Chained(tc.depth, tc.fanout)
		if len(f.Repo) != len(w.Repo) {
			t.Fatalf("parsed %d services, world has %d", len(f.Repo), len(w.Repo))
		}
		c, err := f.Client("cl")
		if err != nil {
			t.Fatal(err)
		}
		as, err := plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr,
			plans.Options{PruneNonCompliant: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(as) != w.PlanCount {
			t.Fatalf("parsed world has %d plans, want %d", len(as), w.PlanCount)
		}
		for _, a := range as {
			if a.Report.Verdict != verify.Valid {
				t.Fatalf("parsed plan %v is %v, want valid", a.Plan, a.Report.Verdict)
			}
		}
	}
}

// assertFixture fails unless the file at path holds exactly src.
func assertFixture(t *testing.T, path, src string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != src {
		t.Fatalf("%s differs from the generator output", path)
	}
}
