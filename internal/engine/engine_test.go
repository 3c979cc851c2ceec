package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"susc/internal/budget"
	"susc/internal/engine"
	"susc/internal/parser"
	"susc/internal/store"
	"susc/internal/verify"
)

const hotelFile = "../../testdata/hotel.susc"

func hotel(t *testing.T) (*parser.File, string) {
	t.Helper()
	src, err := os.ReadFile(hotelFile)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return f, string(src)
}

// TestOpenMemoryOnly: an empty dir yields a session with no disk tier,
// and Close is a no-op.
func TestOpenMemoryOnly(t *testing.T) {
	s, err := engine.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Disk != nil {
		t.Fatal("memory-only session has a disk tier")
	}
	if s.Cache == nil {
		t.Fatal("session has no cache")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLocksStore: two sessions over one cache directory conflict —
// the second Open surfaces the store's typed lock error.
func TestOpenLocksStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Open(dir)
	var le *store.LockedError
	if !errors.As(err, &le) {
		t.Fatalf("second Open = %v, want *store.LockedError", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := engine.Open(dir)
	if err != nil {
		t.Fatalf("Open after Close = %v", err)
	}
	s2.Close()
}

// TestCheckAllWarm: a session's CheckAll verdict is Valid on the hotel
// network, and a second session over the same store replays it from
// disk.
func TestCheckAllWarm(t *testing.T) {
	f, src := hotel(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		s, err := engine.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.CheckAll(f, src, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Verdict != verify.Valid {
			t.Fatalf("run %d: verdict %v", i, res.Report.Verdict)
		}
		if err := res.Err(nil); err != nil {
			t.Fatalf("run %d: Err = %v", i, err)
		}
		if i == 1 {
			st := s.Disk.Stats()
			if st.PerKind[store.KindPlanReport].Hits == 0 {
				t.Fatal("warm run replayed no plan verdicts from disk")
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckPlanErrors: a client without a plan is a typed refusal, and
// CheckErr maps verdicts onto the exit protocol.
func TestCheckPlanErrors(t *testing.T) {
	f, _ := hotel(t)
	s, err := engine.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := engine.SelectClient(f, "c1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.CheckPlan(f, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.CheckErr(r, nil); err != nil {
		t.Fatalf("valid plan: CheckErr = %v", err)
	}
	noPlan := c
	noPlan.Plan = nil
	if _, err := s.CheckPlan(f, noPlan, nil); err == nil {
		t.Fatal("plan-less client accepted")
	}
}

// TestExitCode pins the protocol every front end shares.
func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("findings"), 1},
		{&budget.InternalError{Unit: "u", Value: "boom"}, 2},
		{&budget.ExhaustedError{Reason: budget.Cancelled}, 3},
		{fmt.Errorf("wrapped: %w", &budget.InternalError{Unit: "u"}), 2},
	}
	for _, c := range cases {
		if got := engine.ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestBudgetedCheckAllFlushesUnknown: a cancelled budget degrades the
// verdict to Unknown and Err reports exhaustion (exit 3), never a
// crash.
func TestBudgetedCheckAllFlushesUnknown(t *testing.T) {
	f, src := hotel(t)
	s, err := engine.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bud := budget.New(ctx, budget.Limits{})
	res, err := s.CheckAll(f, src, nil, bud)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Verdict != verify.Unknown {
		t.Fatalf("verdict %v, want unknown", res.Report.Verdict)
	}
	if got := engine.ExitCode(res.Err(bud)); got != 3 {
		t.Fatalf("exit %d, want 3", got)
	}
}

// TestParseCaps covers the availability-spec grammar.
func TestParseCaps(t *testing.T) {
	caps, err := engine.ParseCaps("br=2, s3=1")
	if err != nil {
		t.Fatal(err)
	}
	if caps["br"] != 2 || caps["s3"] != 1 {
		t.Fatalf("caps = %v", caps)
	}
	for _, bad := range []string{"nope", "br=1.5", "br=2x", "=1", "br=-1"} {
		if caps, err := engine.ParseCaps(bad); err == nil {
			t.Fatalf("malformed spec %q accepted as %v", bad, caps)
		}
	}
}
