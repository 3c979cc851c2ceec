package benchgen_test

import (
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/parser"
	"susc/internal/verify"
)

// The CI incremental-smoke job runs `susc checkall -cache` over the
// rendered ChainedClients surface, so the generator's guarantees — the
// source parses back to the constructed world, every plan is valid, and
// each divergent service sits in exactly one client's cone — are load-
// bearing. depth=6, fanout=4, n=18 is the CI configuration.
const (
	ccDepth  = 6
	ccFanout = 4
	ccN      = 18
)

// TestChainedClientsSourceRoundTrips: the rendered source parses back to
// the constructed world, and the checked-in fixtures CI runs equal the
// rendering byte for byte.
func TestChainedClientsSourceRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		n       int
		fixture string
	}{
		{ccN, "testdata/chained-clients-6-4-18.susc"},
		{3, "testdata/chained-clients-6-4-3.susc"},
	} {
		w := benchgen.ChainedClients(ccDepth, ccFanout, tc.n)
		src := benchgen.ChainedClientsSource(ccDepth, ccFanout, tc.n)
		assertFixture(t, tc.fixture, src)
		f, err := parser.ParseFile(src)
		if err != nil {
			t.Fatalf("rendered source does not parse: %v", err)
		}
		if len(f.Repo) != len(w.Repo) {
			t.Fatalf("parsed %d services, world has %d", len(f.Repo), len(w.Repo))
		}
		for loc, e := range w.Repo {
			got, ok := f.Repo[loc]
			if !ok {
				t.Fatalf("service %s missing from parsed file", loc)
			}
			if got.Key() != e.Key() {
				t.Errorf("service %s: parsed key %q, want %q", loc, got.Key(), e.Key())
			}
		}
		if len(f.Clients) != tc.n {
			t.Fatalf("parsed %d clients, want %d", len(f.Clients), tc.n)
		}
		for k, c := range w.Clients {
			got := f.Clients[k]
			if got.Name != c.Name || got.Loc != c.Loc {
				t.Fatalf("client %d: parsed %s at %s, want %s at %s",
					k, got.Name, got.Loc, c.Name, c.Loc)
			}
			if got.Expr.Key() != c.Expr.Key() {
				t.Errorf("client %s: parsed expr key %q, want %q", c.Name, got.Expr.Key(), c.Expr.Key())
			}
			if len(got.Plan) != len(c.Plan) {
				t.Fatalf("client %s: parsed plan has %d bindings, want %d",
					c.Name, len(got.Plan), len(c.Plan))
			}
			for r, loc := range c.Plan {
				if got.Plan[r] != loc {
					t.Errorf("client %s: plan binds %s -> %s, want %s", c.Name, r, got.Plan[r], loc)
				}
			}
		}
	}
}

func TestChainedClientsPlansValid(t *testing.T) {
	w := benchgen.ChainedClients(ccDepth, ccFanout, ccN)
	cache := memo.New()
	for _, c := range w.Clients {
		r, err := verify.CheckPlanOpts(w.Repo, w.Table, c.Loc, c.Expr, c.Plan,
			verify.Options{Cache: cache})
		if err != nil {
			t.Fatalf("client %s: %v", c.Name, err)
		}
		if r.Verdict != verify.Valid {
			t.Fatalf("client %s: verdict %s, want Valid: %s", c.Name, r.Verdict, r)
		}
	}
}

func TestChainedClientsDivergencesDistinct(t *testing.T) {
	w := benchgen.ChainedClients(ccDepth, ccFanout, ccN)
	if max := ccDepth * (ccFanout - 1); ccN > max {
		t.Fatalf("n=%d exceeds depth·(fanout-1)=%d: divergences cannot be distinct", ccN, max)
	}
	seen := map[hexpr.Location]int{}
	for k := range w.Clients {
		d := w.Divergent(k)
		if prev, dup := seen[d]; dup {
			t.Fatalf("clients %d and %d share divergent service %s", prev, k, d)
		}
		seen[d] = k
	}
	// Each divergent service appears in its own client's plan and in no
	// other client's plan — the single-cone property the incremental-smoke
	// job's <10% recompute gate relies on.
	for k, c := range w.Clients {
		d := w.Divergent(k)
		found := false
		for _, loc := range c.Plan {
			if loc == d {
				found = true
			}
		}
		if !found {
			t.Fatalf("client %s does not bind its own divergent service %s", c.Name, d)
		}
		for j, other := range w.Clients {
			if j == k {
				continue
			}
			for _, loc := range other.Plan {
				if loc == d {
					t.Fatalf("client %s binds client %s's divergent service %s",
						other.Name, c.Name, d)
				}
			}
		}
	}
}
