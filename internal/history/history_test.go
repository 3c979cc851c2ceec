package history_test

import (
	"errors"
	"math/rand"
	"testing"

	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/paperex"
	"susc/internal/policy"
)

func ev(name string, args ...hexpr.Value) history.Item {
	return history.EventItem(hexpr.E(name, args...))
}

// noReadAfterWrite is the classic example policy of §3: never write after
// read (here: the trace read·write is forbidden).
func noWriteAfterRead() *policy.Instance {
	a := &policy.Automaton{
		Name:   "nwar",
		States: []string{"q0", "q1", "qv"},
		Start:  "q0",
		Finals: []string{"qv"},
		Edges: []policy.Edge{
			{From: "q0", To: "q1", EventName: "read"},
			{From: "q1", To: "qv", EventName: "write"},
		},
	}
	return a.MustInstantiate(policy.Binding{})
}

func TestFlat(t *testing.T) {
	phi := noWriteAfterRead()
	h := history.History{
		ev("gamma"),
		ev("read"),
		history.OpenItem(phi.ID()),
		ev("beta"),
		history.CloseItem(phi.ID()),
	}
	flat := h.Flat()
	if len(flat) != 3 || flat[0].Name != "gamma" || flat[1].Name != "read" || flat[2].Name != "beta" {
		t.Errorf("flat = %v", flat)
	}
}

func TestBalanced(t *testing.T) {
	phi := noWriteAfterRead()
	cases := []struct {
		h        history.History
		balanced bool
		prefix   bool
	}{
		{nil, true, true},
		{history.History{ev("a")}, true, true},
		{history.History{history.OpenItem(phi.ID()), history.CloseItem(phi.ID())}, true, true},
		{history.History{history.OpenItem(phi.ID())}, false, true},
		{history.History{history.CloseItem(phi.ID())}, false, false},
		{history.History{history.OpenItem("a"), history.OpenItem("b"),
			history.CloseItem("a")}, false, false}, // ill-nested
		{history.History{history.OpenItem("a"), history.OpenItem("b"),
			history.CloseItem("b"), history.CloseItem("a")}, true, true},
	}
	for i, c := range cases {
		if got := c.h.Balanced(); got != c.balanced {
			t.Errorf("case %d: Balanced = %v, want %v", i, got, c.balanced)
		}
		if got := c.h.PrefixOfBalanced(); got != c.prefix {
			t.Errorf("case %d: PrefixOfBalanced = %v, want %v", i, got, c.prefix)
		}
	}
}

func TestActive(t *testing.T) {
	h := history.History{
		history.OpenItem("a"),
		history.OpenItem("b"),
		history.OpenItem("a"),
		history.CloseItem("a"),
	}
	ap := h.Active()
	if ap["a"] != 1 || ap["b"] != 1 || len(ap) != 2 {
		t.Errorf("AP = %v", ap)
	}
	if n := (history.History{}).Active(); len(n) != 0 {
		t.Errorf("AP(ε) = %v", n)
	}
	// a closed framing is not active (see package comment on the paper's
	// left-to-right equations)
	closed := history.History{history.OpenItem("a"), history.CloseItem("a")}
	if len(closed.Active()) != 0 {
		t.Errorf("AP([_a _]a) = %v, want empty", closed.Active())
	}
}

// TestHistoryDependence reproduces the §3.1 example: with φ = "no α after
// γ", the history γ·α·⌊φ·β is invalid (the past γ·α does not obey φ when φ
// activates) while ⌊φ·γ·⌋φ·α·β is valid (φ is no longer active when α
// fires).
func TestHistoryDependence(t *testing.T) {
	a := &policy.Automaton{
		Name:   "noAlphaAfterGamma",
		States: []string{"q0", "q1", "qv"},
		Start:  "q0",
		Finals: []string{"qv"},
		Edges: []policy.Edge{
			{From: "q0", To: "q1", EventName: "gamma"},
			{From: "q1", To: "qv", EventName: "alpha"},
		},
	}
	phi := a.MustInstantiate(policy.Binding{})
	table := policy.NewTable(phi)

	invalid := history.History{
		ev("gamma"), ev("alpha"), history.OpenItem(phi.ID()), ev("beta"),
	}
	if history.Valid(invalid, table) {
		t.Error("γ α ⌊φ β must be invalid (history dependence)")
	}
	if at := history.FirstViolation(invalid, table); at != 3 {
		t.Errorf("violation at %d, want 3 (the framing opening)", at)
	}

	valid := history.History{
		history.OpenItem(phi.ID()), ev("gamma"), history.CloseItem(phi.ID()),
		ev("alpha"), ev("beta"),
	}
	if !history.Valid(valid, table) {
		t.Error("⌊φ γ ⌋φ α β must be valid")
	}
}

func TestValidInsideFraming(t *testing.T) {
	phi := noWriteAfterRead()
	table := policy.NewTable(phi)
	bad := history.History{
		history.OpenItem(phi.ID()), ev("read"), ev("write"),
	}
	if history.Valid(bad, table) {
		t.Error("read·write under φ must be invalid")
	}
	good := history.History{
		history.OpenItem(phi.ID()), ev("read"), history.CloseItem(phi.ID()), ev("write"),
	}
	if !history.Valid(good, table) {
		t.Error("write after the framing closed must be valid")
	}
}

func TestFromLabels(t *testing.T) {
	labels := []hexpr.Label{
		hexpr.EventLabel(hexpr.E("a")),
		hexpr.CommLabel(hexpr.Out("ch")),
		hexpr.Tau,
		hexpr.OpenLabel("r1", "phi"),
		hexpr.EventLabel(hexpr.E("b")),
		hexpr.CloseLabel("r1", "phi"),
		hexpr.OpenLabel("r2", hexpr.NoPolicy),
		hexpr.FrameOpenLabel("psi"),
		hexpr.FrameCloseLabel("psi"),
	}
	h := history.FromLabels(labels)
	want := history.History{
		ev("a"),
		history.OpenItem("phi"),
		ev("b"),
		history.CloseItem("phi"),
		history.OpenItem("psi"),
		history.CloseItem("psi"),
	}
	if len(h) != len(want) {
		t.Fatalf("history = %v (len %d), want %v", h, len(h), want)
	}
	for i := range h {
		if h[i].String() != want[i].String() {
			t.Errorf("item %d = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestMonitorAgreesWithValid(t *testing.T) {
	phi1 := paperex.Phi1()
	phi2 := paperex.Phi2()
	table := policy.NewTable(phi1, phi2)
	items := []history.Item{
		ev(paperex.EvSgn, hexpr.Sym("s1")),
		ev(paperex.EvSgn, hexpr.Sym("s3")),
		ev(paperex.EvPrice, hexpr.Int(90)),
		ev(paperex.EvRating, hexpr.Int(100)),
		history.OpenItem(phi1.ID()),
		history.OpenItem(phi2.ID()),
		history.CloseItem(phi2.ID()),
		history.CloseItem(phi1.ID()),
	}
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := rnd.Intn(7)
		h := make(history.History, 0, n)
		depth := 0
		for i := 0; i < n; i++ {
			it := items[rnd.Intn(len(items))]
			// keep histories prefix-of-balanced: only close the matching top
			if it.Kind == history.ItemFrameClose {
				if depth == 0 {
					continue
				}
				// close the actual top of the stack
				for j := len(h) - 1; j >= 0; j-- {
					if h[j].Kind == history.ItemFrameOpen {
						it = history.CloseItem(h[j].Policy)
						break
					}
				}
				depth--
			} else if it.Kind == history.ItemFrameOpen {
				depth++
			}
			h = append(h, it)
		}
		if !h.PrefixOfBalanced() {
			continue
		}
		ref := history.Valid(h, table)
		m := history.NewMonitor(table)
		inc := m.AppendAll(h) == nil
		if ref != inc {
			t.Fatalf("monitor disagrees with Valid on %v: ref=%v inc=%v", h, ref, inc)
		}
	}
}

func TestMonitorViolationDetails(t *testing.T) {
	phi := noWriteAfterRead()
	table := policy.NewTable(phi)
	m := history.NewMonitor(table)
	if err := m.Append(history.OpenItem(phi.ID())); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ev("read")); err != nil {
		t.Fatal(err)
	}
	err := m.Append(ev("write"))
	var verr *history.ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v, want ViolationError", err)
	}
	if verr.Policy != phi.ID() || verr.At != 3 {
		t.Errorf("violation = %+v", verr)
	}
	// The monitor state is unchanged: the event was rejected.
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
	if len(m.Active()) != 1 {
		t.Errorf("Active = %v", m.Active())
	}
	// Closing the frame re-enables the write.
	if err := m.Append(history.CloseItem(phi.ID())); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ev("write")); err != nil {
		t.Errorf("write after closing: %v", err)
	}
}

func TestMonitorNesting(t *testing.T) {
	phi := noWriteAfterRead()
	table := policy.NewTable(phi)
	m := history.NewMonitor(table)
	err := m.Append(history.CloseItem(phi.ID()))
	var nerr *history.NestingError
	if !errors.As(err, &nerr) {
		t.Fatalf("err = %v, want NestingError", err)
	}
}

func TestMonitorActivationChecksPast(t *testing.T) {
	phi := noWriteAfterRead()
	table := policy.NewTable(phi)
	m := history.NewMonitor(table)
	if err := m.Append(ev("read")); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ev("write")); err != nil {
		t.Fatal(err) // no policy active yet
	}
	err := m.Append(history.OpenItem(phi.ID()))
	var verr *history.ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("activating φ over a violating past must fail, got %v", err)
	}
}

func TestMonitorSnapshotIndependence(t *testing.T) {
	phi := noWriteAfterRead()
	table := policy.NewTable(phi)
	m := history.NewMonitor(table)
	if err := m.Append(history.OpenItem(phi.ID())); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Append(ev("read")); err != nil {
		t.Fatal(err)
	}
	// the snapshot has not seen "read": write must be fine there
	if err := snap.Append(ev("write")); err != nil {
		t.Errorf("snapshot polluted by original: %v", err)
	}
	// but not on the original
	if err := m.Append(ev("write")); err == nil {
		t.Error("original must reject write after read")
	}
}

func TestUnknownPolicyIsConservative(t *testing.T) {
	table := policy.NewTable()
	h := history.History{history.OpenItem("ghost")}
	if history.Valid(h, table) {
		t.Error("activating an unknown policy must be invalid")
	}
	m := history.NewMonitor(table)
	if err := m.Append(history.OpenItem("ghost")); err == nil {
		t.Error("monitor must reject unknown policies")
	}
}

func TestHistoryString(t *testing.T) {
	h := history.History{ev("a", hexpr.Int(1)), history.OpenItem("phi"), history.CloseItem("phi")}
	if got := h.String(); got != "a(1) [_phi _]phi" {
		t.Errorf("String = %q", got)
	}
}
