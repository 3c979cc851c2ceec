package memo

import (
	"math/rand"
	"sync"
	"testing"

	"susc/internal/compliance"
	"susc/internal/contract"
	"susc/internal/hexpr"
	"susc/internal/lts"
	"susc/internal/paperex"
)

// contractPairs yields random (client, server) contract pairs, plus the
// paper's broker/hotel pairs, for cross-checking the cached deciders
// against their uncached counterparts.
func contractPairs(t *testing.T, n int) [][2]hexpr.Expr {
	t.Helper()
	brBody, _, err := contract.RequestBody(paperex.Broker(), "r3")
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]hexpr.Expr{
		{brBody, paperex.S1()},
		{brBody, paperex.S2()},
		{brBody, paperex.S3()},
		{brBody, paperex.S4()},
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		c := hexpr.GenerateContract(rnd, 4)
		s := hexpr.GenerateContract(rnd, 4)
		pairs = append(pairs, [2]hexpr.Expr{c, s})
	}
	return pairs
}

// TestComplianceMatchesUncached: the memoised verdict and witness must be
// exactly what the plain decider produces, on first sight and on a hit.
func TestComplianceMatchesUncached(t *testing.T) {
	c := New()
	for _, pr := range contractPairs(t, 60) {
		wantOK, wantErr := compliance.Compliant(pr[0], pr[1])
		var wantWitness string
		if wantErr == nil && !wantOK {
			p, err := compliance.NewProduct(pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			wantWitness = p.FindWitness().String()
		}
		for round := 0; round < 2; round++ { // miss, then hit
			ok, witness, err := c.Compliance(pr[0], pr[1])
			if (err != nil) != (wantErr != nil) || ok != wantOK || witness != wantWitness {
				t.Fatalf("round %d: Compliance=(%v,%q,%v), uncached=(%v,%q,%v)",
					round, ok, witness, err, wantOK, wantWitness, wantErr)
			}
		}
	}
	st := c.Stats()
	if st.ComplianceHits == 0 || st.ComplianceMisses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	if st.ComplianceHits < st.ComplianceMisses {
		t.Fatalf("second round should hit every pair: %+v", st)
	}
}

// TestProductMatchesUncached: cached products agree with fresh ones on
// emptiness and state count.
func TestProductMatchesUncached(t *testing.T) {
	c := New()
	for _, pr := range contractPairs(t, 40) {
		got, gotErr := c.Product(pr[0], pr[1])
		want, wantErr := compliance.NewProduct(pr[0], pr[1])
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("Product err=%v, uncached err=%v", gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Empty() != want.Empty() || len(got.States) != len(want.States) {
			t.Fatalf("product mismatch: empty %v/%v, states %d/%d",
				got.Empty(), want.Empty(), len(got.States), len(want.States))
		}
	}
}

// TestStepsMatchesUncached: the memoised one-step relation is the plain
// lts.Step relation, and repeated calls return the shared slice.
func TestStepsMatchesUncached(t *testing.T) {
	c := New()
	rnd := rand.New(rand.NewSource(5))
	cfg := hexpr.DefaultGenConfig()
	for i := 0; i < 60; i++ {
		e := hexpr.Generate(rnd, cfg)
		got := c.Steps(e)
		want := lts.Step(e)
		if len(got) != len(want) {
			t.Fatalf("Steps count %d, lts.Step count %d", len(got), len(want))
		}
		for j := range got {
			if got[j].Label.String() != want[j].Label.String() || got[j].To.Key() != want[j].To.Key() {
				t.Fatalf("transition %d differs: %v vs %v", j, got[j], want[j])
			}
		}
		again := c.Steps(e)
		if len(again) != len(got) {
			t.Fatal("hit returned a different slice length")
		}
	}
}

// TestProjectMatchesUncached: memoised projection equals contract.Project.
func TestProjectMatchesUncached(t *testing.T) {
	c := New()
	rnd := rand.New(rand.NewSource(9))
	cfg := hexpr.DefaultGenConfig()
	for i := 0; i < 60; i++ {
		e := hexpr.Generate(rnd, cfg)
		if c.Project(e).Key() != contract.Project(e).Key() {
			t.Fatalf("projection mismatch for %s", e.Key())
		}
		if c.Project(e).Key() != contract.Project(e).Key() {
			t.Fatal("projection hit mismatch")
		}
	}
}

// TestConcurrentCache hammers one cache from many goroutines and checks
// every goroutine observes the same verdicts. Run under -race this is the
// data-race check for the sharded tables and the shared interner.
func TestConcurrentCache(t *testing.T) {
	pairs := contractPairs(t, 30)
	want := make([]bool, len(pairs))
	for i, pr := range pairs {
		ok, err := compliance.Compliant(pr[0], pr[1])
		if err != nil {
			// keep the pair anyway; the cached decider must err alike
			_ = err
		}
		want[i] = ok
	}
	c := New()
	const nGo = 8
	var wg sync.WaitGroup
	errs := make(chan string, nGo*len(pairs))
	for g := 0; g < nGo; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pairs {
				i := (k*5 + g*11) % len(pairs)
				pr := pairs[i]
				ok, err := c.Compliant(pr[0], pr[1])
				if err == nil && ok != want[i] {
					errs <- "verdict mismatch"
				}
				c.Steps(pr[0])
				c.Project(pr[1])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := c.Stats()
	if st.Hits() == 0 {
		t.Fatalf("concurrent reuse should produce hits: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("hit rate out of range: %v", st.HitRate())
	}
}

func TestStatsZero(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("zero stats must report rate 0")
	}
}
