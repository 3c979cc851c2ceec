package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json at the
// repository root lists the same names with their direction and, for
// end-to-end metrics, the regression bound; the drift test holds the two
// lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are measured with tracing off, on every workload. Each
// workload defines its cold, warm and edit ops (see README.md). Only
// medians are reported: on a shared 2-core box a p90 moves whenever host
// contention touches more than a tenth of a run, and spread up to a third
// from run to run where the medians stayed within a fifth. Peak RSS is a
// per-layer diagnostic for the same reason: where collections land in an
// op sets it, and it spread up to 30 % on audit-chained.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer come from the traced run. A "<span>_ms" metric is the mean
// self time per traced op of the spans with that name; counts are means
// per traced op; ratios are taken over the whole traced run. A layer a
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms"},
	{"parser.spec_kb", "KB"},
	{"plans.assess_ms", "ms"},
	{"plans.states_expanded", "count"},
	{"plans.edges_built", "count"},
	{"plans.replay_states", "count"},
	{"plans.replay_memo_hits", "count"},
	{"plans.plans_assessed", "count"},
	{"plans.bindings_pruned", "count"},
	{"plans.replay_memo_ratio", "ratio"},
	{"audit.run_ms", "ms"},
	{"audit.unguarded_ms", "ms"},
	{"audit.plancoverage_ms", "ms"},
	{"audit.valid_plans", "count"},
	{"audit.audited_plans", "count"},
	{"lint.run_ms", "ms"},
	{"lint.semantic_ms", "ms"},
	{"lint.store_hits", "count"},
	{"verify.check_ms", "ms"},
	{"verify.states", "count"},
	{"verify.plan_store_misses", "count"},
	{"memo.new_ms", "ms"},
	{"memo.hit_ratio", "ratio"},
	{"memo.misses", "count"},
	{"memo.compliance_misses", "count"},
	{"memo.product_misses", "count"},
	{"memo.steps_misses", "count"},
	{"memo.lts_misses", "count"},
	{"memo.compiled_misses", "count"},
	{"memo.entries", "count"},
	{"memo.approx_mb", "MB"},
	{"store.open_ms", "ms"},
	{"store.replayed", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.writebacks", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.kb", "KB"},
	{"store.close_ms", "ms"},
	{"encode.ndjson_ms", "ms"},
	{"encode.kb", "KB"},
	{"server.ttfb_ms", "ms"},
	{"server.body_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.resp_kb", "KB"},
	{"server.shed", "count"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.store_hit_ratio", "ratio"},
	{"runtime.gc_per_op", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.layer_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// median is the middle sample, or the mean of the middle two; NaN when
// there are none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) in its
// default "exclusive" method, so spreads read the same here as in any
// script that checks them. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// usage is a process resource snapshot; the difference of two gives the
// cost of the work in between.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
	}
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
