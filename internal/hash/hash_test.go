package hash

import (
	"testing"

	"susc/internal/hexpr"
	"susc/internal/policy"
)

func TestFramingPreventsConcatenationCollisions(t *testing.T) {
	a := New()
	a.Str("ab")
	a.Str("c")
	b := New()
	b.Str("a")
	b.Str("bc")
	if a.Sum() == b.Sum() {
		t.Fatal("length-prefixed strings collided by concatenation")
	}
}

// TestStateResumes: a digest restored from a saved state continues as if
// the writes before the save had just been made, whatever the Hasher
// wrote in between — including a finalised Sum.
func TestStateResumes(t *testing.T) {
	h := New()
	h.Str("a prefix longer than one 64-byte block of SHA-256, so the state carries both a chained value and a partial block")
	st, err := h.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Str("one suffix")
	h.Sum()
	h.Reset()
	h.Str("unrelated")
	if err := h.SetState(st); err != nil {
		t.Fatal(err)
	}
	h.Str("another suffix")
	want := New()
	want.Str("a prefix longer than one 64-byte block of SHA-256, so the state carries both a chained value and a partial block")
	want.Str("another suffix")
	if h.Sum() != want.Sum() {
		t.Fatal("resumed digest differs from a fresh one over the same writes")
	}
}

func TestExprStableAcrossRebuilds(t *testing.T) {
	mk := func() hexpr.Expr {
		return hexpr.Open("r1", hexpr.NoPolicy,
			hexpr.SendThen("m", hexpr.RecvThen("k", hexpr.Eps())))
	}
	if Expr(mk()) != Expr(mk()) {
		t.Fatal("identical expressions hash differently")
	}
	other := hexpr.Open("r2", hexpr.NoPolicy,
		hexpr.SendThen("m", hexpr.RecvThen("k", hexpr.Eps())))
	if Expr(mk()) == Expr(other) {
		t.Fatal("distinct expressions hash equal")
	}
}

func TestPairIsOrdered(t *testing.T) {
	c := hexpr.SendThen("m", hexpr.Eps())
	s := hexpr.RecvThen("m", hexpr.Eps())
	if Pair(c, s) == Pair(s, c) {
		t.Fatal("compliance is directional; the pair digest must be ordered")
	}
	if Pair(c, s) != Pair(c, s) {
		t.Fatal("pair digest not deterministic")
	}
}

func TestPolicySensitiveToStructure(t *testing.T) {
	mk := func(to string) *policy.Instance {
		a := &policy.Automaton{
			Name:   "p",
			States: []string{"q0", "qv"},
			Start:  "q0",
			Finals: []string{"qv"},
			Edges:  []policy.Edge{{From: "q0", To: to, EventName: "bad"}},
		}
		return a.MustInstantiate(policy.Binding{})
	}
	if Policy(mk("qv")) != Policy(mk("qv")) {
		t.Fatal("identical policies hash differently")
	}
	if Policy(mk("qv")) == Policy(mk("q0")) {
		t.Fatal("retargeting an edge must change the policy digest")
	}
}

func TestFileExtrasMatter(t *testing.T) {
	src := []byte("service s = eps;")
	if File(src, "analyzers=a,b") == File(src, "analyzers=a") {
		t.Fatal("analysis configuration must be part of the file key")
	}
	if File(src) != File(src) {
		t.Fatal("file digest not deterministic")
	}
}

func TestFingerprintTracksEngineVersion(t *testing.T) {
	// The fingerprint is what store headers embed; it must be a pure
	// function of EngineVersion.
	if Fingerprint() != Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	h := New()
	h.Str("engine")
	h.Str(EngineVersion + "-other")
	if Fingerprint() == h.Sum() {
		t.Fatal("fingerprint does not depend on the version string")
	}
}
