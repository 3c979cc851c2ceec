package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"testing"

	"susc/internal/engine"
	"susc/internal/memo"
)

// testConfig is a run of one workload on seed, with its stores in a
// temporary directory.
func testConfig(t *testing.T, seed int64) runConfig {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: seed, seconds: 0.1, root: root, work: t.TempDir()}
}

func noFailures(t *testing.T, rec *recorder) {
	t.Helper()
	if rec.failed != 0 || rec.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", rec.failed, rec.attempted, rec.errs)
	}
}

// tracedOnce runs one traced op through fn and returns the span tree's
// self times.
func tracedOnce(t *testing.T, fn func(root *open) error) selfTimes {
	t.Helper()
	tr := newTracer()
	root := tr.root("cold")
	err := fn(root)
	root.end()
	if err != nil {
		t.Fatal(err)
	}
	return tr.selfTimes()
}

// TestPlansChained checks the answers of a cold, warm and edit op, untraced
// and traced, and that the traced decomposition encodes the same bytes as
// Session.Assess.
func TestPlansChained(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			inst, err := setupPlans(testConfig(t, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			w := inst.(*plansWork)
			var rec recorder
			w.iteration(&rec, nil)
			w.iteration(&rec, newTracer())
			noFailures(t, &rec)
			for _, src := range []string{w.src, w.editSrc} {
				sess, err := engine.Open("")
				if err != nil {
					t.Fatal(err)
				}
				if err := w.untraced(sess, src); err != nil {
					t.Fatal(err)
				}
				want := bytes.Clone(w.buf.Bytes())
				tracedOnce(t, func(root *open) error { return w.traced(root, memo.New(), src) })
				if !bytes.Equal(w.buf.Bytes(), want) {
					t.Fatal("traced records differ from Session.Assess's")
				}
			}
		})
	}
}

// TestAuditChained is TestPlansChained for the audit: AuditSource against
// ParseFileLenient followed by Audit.
func TestAuditChained(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			inst, err := setupAudit(testConfig(t, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			w := inst.(*auditWork)
			var rec recorder
			w.iteration(&rec, nil)
			w.iteration(&rec, newTracer())
			noFailures(t, &rec)
			for _, src := range []string{w.src, w.editSrc} {
				sess, err := engine.Open("")
				if err != nil {
					t.Fatal(err)
				}
				if err := w.untraced(sess, src); err != nil {
					t.Fatal(err)
				}
				want := bytes.Clone(w.buf.Bytes())
				tracedOnce(t, func(root *open) error { return w.traced(root, memo.New(), src) })
				if !bytes.Equal(w.buf.Bytes(), want) {
					t.Fatal("traced records differ from Session.Audit's")
				}
			}
		})
	}
}

// TestIncrementalClients runs a cold, warm and edit cycle through
// Session.CheckAll and through its decomposition, in two store
// directories, and requires the same results and the same store traffic
// from both.
func TestIncrementalClients(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			inst, err := setupIncremental(testConfig(t, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			w := inst.(*incrementalWork)
			defer w.close()
			var rec recorder
			w.iteration(&rec, nil)
			w.iteration(&rec, newTracer())
			noFailures(t, &rec)

			plain, split := filepath.Join(w.dir, "plain"), filepath.Join(w.dir, "split")
			for ph := cold; ph <= edit; ph++ {
				src := w.src
				if ph == edit {
					src = w.editSrc
				}
				if err := w.untraced(plain, src); err != nil {
					t.Fatal(err)
				}
				want, wantStore := w.outcome()
				if err := w.check(ph)(); err != nil {
					t.Fatalf("%s: %v", ph, err)
				}
				st := tracedOnce(t, func(root *open) error { return w.traced(root, split, src) })
				got, gotStore := w.outcome()
				if got != want {
					t.Fatalf("%s: traced result\n%s\ndiffers from Session.CheckAll's\n%s", ph, got, want)
				}
				if gotStore != wantStore {
					t.Fatalf("%s: traced store traffic %s, Session.CheckAll's %s", ph, gotStore, wantStore)
				}
				if share := st.layerShare(); share < 0.9 {
					t.Errorf("%s: layers cover %.0f%% of the op", ph, 100*share)
				}
			}
		})
	}
}

// outcome renders the last checkall run: its result and its store
// traffic.
func (w *incrementalWork) outcome() (string, string) {
	res, _ := json.Marshal(w.last.res)
	st := w.last.store
	return string(res) + "\n" + w.buf.String(),
		fmt.Sprintf("%d hits, %d misses, %d write-backs", st.Hits(), st.Misses(), st.Writebacks())
}

// TestServeMix posts every request class, untraced and traced; a traced
// op also replays the request in-process and fails unless the records
// match the served ones.
func TestServeMix(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			inst, err := setupServe(testConfig(t, seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			w := inst.(*serveWork)
			defer func() {
				if err := w.close(); err != nil {
					t.Error(err)
				}
			}()
			var rec recorder
			if err := w.openReplica(); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			g := w.generator("test", seed)
			for _, class := range classes {
				w.do(&rec, g.make(class))
				w.tracedOp(&rec, tr, g.make(class))
			}
			noFailures(t, &rec)
		})
	}
}

// TestDrift holds BENCHMARK.json to the workloads and metrics bench
// prints, as every run does, and checks the names' alphabet.
func TestDrift(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadSpec(root); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("metric name %q", d.name)
			}
		}
	}
	for _, w := range workloads {
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestSelfTime checks the self-time rule on overlapping children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Op: 1, ID: 1, Name: "op.cold", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{Op: 1, ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	st := tr.selfTimes()
	want := map[string]float64{"op.cold": 50e-6, "a": 30e-6, "b": 20e-6, "c": 10e-6}
	for name, v := range want {
		if d := st.byName[name] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", name, st.byName[name], v)
		}
	}
}
