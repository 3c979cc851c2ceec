//go:build go1.24

package plans

import (
	"runtime"
	"testing"
	"weak"

	"susc/internal/benchgen"
	"susc/internal/verify"
)

// TestAssessmentsDoNotRetainTheGraph: the assessments AssessAll hands out
// keep their reports, their plans' vectors and the binding table those
// name, never the engine. Once the engine and its family are dropped, a
// collection frees the engine (and with it the graph, the arenas and the
// tables), while the assessments stay whole.
func TestAssessmentsDoNotRetainTheGraph(t *testing.T) {
	w := benchgen.Chained(4, 2)
	fam, err := AssessWithFlows(w.Repo, w.Table, w.Loc, w.Client, Options{PruneNonCompliant: true})
	if err != nil {
		t.Fatal(err)
	}
	engine := weak.Make(fam.eng)
	as := fam.assessments() // what AssessAll returns
	fam = nil
	runtime.GC()
	if engine.Value() != nil {
		t.Fatal("the engine outlives its family: the assessments keep it reachable")
	}
	if len(as) != w.PlanCount {
		t.Fatalf("%d assessments, want %d", len(as), w.PlanCount)
	}
	for _, a := range as {
		if a.Report.Verdict != verify.Valid || len(a.Plan.Map()) != 4 {
			t.Fatalf("plan %s: %s after the collection", a.Plan, a.Report)
		}
	}
}
