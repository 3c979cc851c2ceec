package plans_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/paperex"
	"susc/internal/plans"
	"susc/internal/policy"
)

// checkWireForm requires p to render as its map m does: Key and String as
// m.Key(), AppendJSON (after a prefix it must keep) as json.Marshal of m
// as a map[string]string, within JSONLen bytes.
func checkWireForm(t *testing.T, p plans.Plan, m network.Plan) {
	t.Helper()
	if p.Key() != m.Key() || p.String() != m.Key() {
		t.Fatalf("plan keys as %q and %q, its map as %q", p.Key(), p.String(), m.Key())
	}
	strs := make(map[string]string, len(m))
	for r, l := range m {
		strs[string(r)] = string(l)
	}
	want, err := json.Marshal(strs)
	if err != nil {
		t.Fatal(err)
	}
	got := p.AppendJSON([]byte("x"))
	if !bytes.Equal(got[1:], want) || got[0] != 'x' || p.JSONLen() < len(want) {
		t.Fatalf("plan %s encodes as %s (JSONLen %d), json.Marshal as %s", m.Key(), got, p.JSONLen(), want)
	}
}

// TestPlanWireForm: a Plan is its map on the wire. Over random maps whose
// names need escaping ('<', '&', '"', '\\', U+2028, invalid UTF-8, control
// bytes) and sort close together, PlanOf(m).Map() is m, and its key and
// JSON are the map's; the zero Plan is the empty plan. The plans a sweep hands out — over a table of the
// whole world, with unbound requests — render as their maps too.
func TestPlanWireForm(t *testing.T) {
	parts := []string{"r", "s", "1", "<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\xff", "\xc3", "é", "\x00", "\n", ",", "{"}
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		return b.String()
	}
	if got := (plans.Plan{}).Map(); !reflect.DeepEqual(got, network.Plan{}) {
		t.Fatalf("the zero Plan's map is %v", got)
	}
	checkWireForm(t, plans.Plan{}, network.Plan{})
	for trial := 0; trial < 2000; trial++ {
		m := network.Plan{}
		for n := rng.Intn(7); n > 0; n-- {
			m[hexpr.RequestID(name())] = hexpr.Location(name())
		}
		p := plans.PlanOf(m)
		if got := p.Map(); !reflect.DeepEqual(got, m) {
			t.Fatalf("PlanOf(%q).Map() = %q", m, got)
		}
		checkWireForm(t, p, m)
	}

	c := benchgen.Chained(3, 2)
	worlds := []struct {
		repo   network.Repository
		table  *policy.Table
		loc    hexpr.Location
		client hexpr.Expr
	}{
		{paperex.Repository(), paperex.Policies(), paperex.LocC1, paperex.C1()},
		{paperex.Repository(), paperex.Policies(), paperex.LocC2, paperex.C2()},
		{c.Repo, c.Table, c.Loc, c.Client},
	}
	unbound := 0
	for _, w := range worlds {
		as, err := plans.AssessAll(w.repo, w.table, w.loc, w.client, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reqs := map[hexpr.RequestID]bool{}
		for _, a := range as {
			for r := range a.Plan.Map() {
				reqs[r] = true
			}
		}
		for _, a := range as {
			m := a.Plan.Map()
			if len(m) < len(reqs) {
				unbound++
			}
			checkWireForm(t, a.Plan, m)
		}
	}
	if unbound == 0 {
		t.Fatal("no swept plan leaves a request unbound")
	}
}
