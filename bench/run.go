package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// phase is which cache state an op meets.
type phase int

const (
	cold phase = iota // nothing cached
	warm              // the same input again, caches filled
	edit              // one declaration edited, caches filled

	unreported phase = -1 // served requests that only add load
)

var phaseNames = [...]string{"cold", "warm", "edit"}

func (p phase) String() string {
	if p == unreported {
		return "mix"
	}
	return phaseNames[p]
}

// recorder collects op latencies by phase and counts failures. A failed
// op records no latency: it misses every latency limit.
type recorder struct {
	lat       [3][]float64 // ms
	attempted int
	failed    int
	busy      time.Duration // summed duration of every op attempted
	errs      []string
}

// fail counts a failed op and keeps its first few reasons.
func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// timeOp times op and, when check accepts what op produced, records the
// latency under ph. check runs outside the timed interval. Each op starts
// from a collected heap, as a new CLI process would, so no op pays for
// the garbage of the one before it.
func (r *recorder) timeOp(ph phase, op func() error, check func() error) {
	runtime.GC()
	start := time.Now()
	err := op()
	r.done(ph, time.Since(start), err, check)
}

// done records one op that took d and returned err.
func (r *recorder) done(ph phase, d time.Duration, err error, check func() error) {
	r.attempted++
	r.busy += d
	if err == nil {
		err = check()
	}
	if err != nil {
		r.fail(fmt.Errorf("%s op: %w", ph, err))
		return
	}
	if ph != unreported {
		r.lat[ph] = append(r.lat[ph], ms(d))
	}
}

// opsPerS is the ops completed per second spent in them.
func (r *recorder) opsPerS() float64 { return float64(r.attempted) / r.busy.Seconds() }

func (r *recorder) merge(o *recorder) {
	for i := range r.lat {
		r.lat[i] = append(r.lat[i], o.lat[i]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.busy += o.busy
	r.errs = append(r.errs, o.errs...)
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // repository root: fixtures are read from here
	work    string // scratch directory for stores, removed at exit
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// instance is a set-up workload, ready for its first op.
type instance interface {
	// measure runs the workload for d after an untimed warm-up, whose ops
	// go to warmUp. With a tracer it alternates untraced and traced ops:
	// traced ones go to traced, the rest to rec.
	measure(d time.Duration, warmUp, rec, traced *recorder, tr *tracer) error
	// layers returns the workload's own per-layer counters, as means over
	// the traced ops.
	layers() map[string]float64
	close() error
}

type workload struct {
	name string
	// setup builds the inputs from the seed and everything the first op
	// needs; its time is setup_s.
	setup func(cfg runConfig, n int) (instance, error)
}

// workloads is the fixed suite; names and order never change.
var workloads = []workload{
	{"plans-chained", setupPlans},
	{"audit-chained", setupAudit},
	{"incremental-clients", setupIncremental},
	{"serve-mix", setupServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setups is how many times a run sets its workload up; setup_s is the
// median. A set-up takes well under a millisecond, and on a shared 2-core
// box runs of a few dozen fast and slow ones move the median by a tenth;
// a hundred keep two sets of ten runs within a few percent.
const setups = 101

// runOne sets a workload up, measures it and returns the metrics the
// run prints: end-to-end ones untraced, per-layer ones traced.
func runOne(w workload, cfg runConfig, spansPath string) (res result, err error) {
	var inst instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, err
			}
		}
		runtime.GC()
		start := time.Now()
		inst, err = w.setup(cfg, i)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()

	warmUp, rec, traced := &recorder{}, &recorder{}, &recorder{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	before := snapshot()
	if err := inst.measure(cfg.duration(), warmUp, rec, traced, tr); err != nil {
		return res, err
	}
	after := snapshot()
	all := &recorder{}
	all.merge(rec)
	all.merge(traced)
	warmUp.lat = [3][]float64{}
	all.merge(warmUp)
	for _, e := range all.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
	}
	res = result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metric{}}
	if all.attempted == 0 {
		return res, fmt.Errorf("%s: no op completed", w.name)
	}
	if !cfg.trace {
		for ph := cold; ph <= edit; ph++ {
			if len(rec.lat[ph]) == 0 {
				return res, fmt.Errorf("%s: no successful %s op", w.name, ph)
			}
		}
		ops := float64(all.attempted)
		set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
		set("setup_s", median(setupS))
		for ph := cold; ph <= edit; ph++ {
			set(ph.String()+"_p50_ms", median(rec.lat[ph]))
		}
		set("ops_per_s", rec.opsPerS())
		set("alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/(1<<20)/ops)
		set("cpu_ms_per_op", ms(after.cpu-before.cpu)/ops)
		return res, nil
	}

	st := tr.selfTimes()
	values := inst.layers()
	for _, d := range perLayer {
		if span, ok := strings.CutSuffix(d.name, "_ms"); ok {
			if _, own := values[d.name]; !own {
				values[d.name] = st.perOp(span)
			}
		}
	}
	values["runtime.gc_per_op"] = float64(after.gcs-before.gcs) / float64(all.attempted)
	values["runtime.peak_rss_mb"] = peakRSSMB()
	values["trace.layer_share"] = st.layerShare()
	values["trace.overhead_ratio"] = median(traced.lat[cold])/median(rec.lat[cold]) - 1
	for _, d := range perLayer {
		v := values[d.name]
		if math.IsNaN(v) {
			v = 0 // no sample in this run, e.g. no served request of a rare class
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, tr); err != nil {
			return res, err
		}
	}
	return res, nil
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeNDJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// loop is the measurement loop of the in-process workloads: two untimed
// warm-up iterations, then iterations until d has passed. With a tracer,
// odd iterations are traced.
func loop(d time.Duration, warmUp, rec, traced *recorder, tr *tracer, iteration func(rec *recorder, tr *tracer)) {
	for i := 0; i < 2; i++ {
		iteration(warmUp, nil)
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if tr != nil && i%2 == 1 {
			iteration(traced, tr)
			continue
		}
		iteration(rec, nil)
	}
}
