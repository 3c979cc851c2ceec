package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// resultFile is what a suite or -repeat run writes and -diff reads: every
// run's value of every metric, by workload.
type resultFile struct {
	Seconds   float64                  `json:"seconds"`
	Seeds     []int64                  `json:"seeds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Attempted []int              `json:"attempted"`
	Failed    []int              `json:"failed"`
	Metrics   map[string]*series `json:"metrics"`
	PerLayer  map[string]*series `json:"per_layer,omitempty"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func addAll(dst map[string]*series, ms map[string]metric) {
	for name, m := range ms {
		s := dst[name]
		if s == nil {
			s = &series{Unit: m.Unit}
			dst[name] = s
		}
		s.Values = append(s.Values, m.Value)
	}
}

// child runs one workload in a child process of its own, with a fresh
// heap and its own peak RSS, and returns its result line.
func child(name string, seed int64, seconds float64, traced bool, spans string) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if spans != "" {
			args = append(args, "-spans", spans)
		}
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return res, nil
}

// runSet runs every workload once on one seed and adds the results to
// file; with traced it also makes the shorter traced run (a fifth of the
// time) and appends its spans to spans.
func runSet(file *resultFile, seed int64, seconds float64, traced bool, spans string) error {
	file.Seeds = append(file.Seeds, seed)
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s, seed %d\n", w.name, seed)
		res, err := child(w.name, seed, seconds, false, "")
		if err != nil {
			return err
		}
		runs := file.Workloads[w.name]
		if runs == nil {
			runs = &workloadRuns{Metrics: map[string]*series{}, PerLayer: map[string]*series{}}
			file.Workloads[w.name] = runs
		}
		runs.Attempted = append(runs.Attempted, res.Attempted)
		runs.Failed = append(runs.Failed, res.Failed)
		addAll(runs.Metrics, res.Metrics)
		if !traced {
			continue
		}
		part := ""
		if spans != "" {
			part = spans + "." + w.name
		}
		tres, err := child(w.name, seed, math.Max(1, seconds/5), true, part)
		if err != nil {
			return err
		}
		runs.Attempted[len(runs.Attempted)-1] += tres.Attempted
		runs.Failed[len(runs.Failed)-1] += tres.Failed
		addAll(runs.PerLayer, tres.Metrics)
		if part != "" {
			if err := appendFile(spans, part); err != nil {
				return err
			}
		}
	}
	return nil
}

func appendFile(dst, part string) error {
	src, err := os.Open(part)
	if err != nil {
		return err
	}
	defer os.Remove(part)
	defer src.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, src); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func writeResult(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSuite runs one set and prints every metric.
func runSuite(seed int64, seconds float64, traced bool, spans, out string) int {
	file := &resultFile{Seconds: seconds, Workloads: map[string]*workloadRuns{}}
	if spans != "" {
		if err := os.Remove(spans); err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := runSet(file, seed, seconds, traced, spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return report(file, out)
}

// repeatSets runs n sets on consecutive seeds and prints each metric's
// median, quartile spread and range.
func repeatSets(seed int64, n int, seconds float64, out string) int {
	file := &resultFile{Seconds: seconds, Workloads: map[string]*workloadRuns{}}
	for i := 0; i < n; i++ {
		if err := runSet(file, seed+int64(i), seconds, false, ""); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return report(file, out)
}

// report prints the table, writes the result file and exits 1 if any op
// failed.
func report(file *resultFile, out string) int {
	failed := 0
	fmt.Printf("%-20s %-26s %12s %9s %12s %12s  %s\n", "workload", "metric", "median", "iqr/med", "min", "max", "unit")
	for _, w := range workloads {
		runs := file.Workloads[w.name]
		for _, f := range runs.Failed {
			failed += f
		}
		for _, group := range []struct {
			defs []metricDef
			vals map[string]*series
		}{{endToEnd, runs.Metrics}, {perLayer, runs.PerLayer}} {
			for _, d := range group.defs {
				s := group.vals[d.name]
				if s == nil {
					continue
				}
				q1, q2, q3 := quartiles(s.Values)
				lo, hi := minMax(s.Values)
				fmt.Printf("%-20s %-26s %12.4f %8.1f%% %12.4f %12.4f  %s\n",
					w.name, d.name, q2, 100*relSpread(q1, q2, q3), lo, hi, s.Unit)
			}
		}
		fmt.Printf("%-20s %-26s %12d of %d ops failed\n", w.name, "failed", sum(runs.Failed), sum(runs.Attempted))
	}
	if err := writeResult(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", out)
	if failed > 0 {
		return 1
	}
	return 0
}

func relSpread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func minMax(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

func sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares one metric's runs on two commits by the rules of the
// choosing-metrics guide: worse when the new median is worse by more than
// the bound, unless the runs spread wider than the bound and do not all
// read worse (unresolved); better when the new side wins nine tenths of
// the pairs and the medians differ by more than the old side's quartile
// spread; otherwise same, or unresolved when the spread exceeds the bound
// and the new runs do not all read better.
func verdict(old, cur []float64, higherBetter bool, bound float64) (string, float64) {
	_, mo, _ := quartiles(old)
	_, mn, _ := quartiles(cur)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	worse := sign * (mn - mo) / math.Abs(mo)
	oq1, _, oq3 := quartiles(old)
	nq1, _, nq3 := quartiles(cur)
	spread := math.Max(relSpread(oq1, mo, oq3), relSpread(nq1, mn, nq3))
	lt := func(a, b float64) bool { return sign*a < sign*b } // a reads better than b
	allWorse, allBetter := true, true
	for _, o := range old {
		for _, n := range cur {
			allWorse = allWorse && lt(o, n)
			allBetter = allBetter && lt(n, o)
		}
	}
	wins, pairs := 0, 0
	if len(old) == len(cur) {
		for i := range old {
			pairs++
			if lt(cur[i], old[i]) {
				wins++
			}
		}
	} else {
		for _, o := range old {
			for _, n := range cur {
				pairs++
				if lt(n, o) {
					wins++
				}
			}
		}
	}
	switch {
	case worse > bound && spread > bound && !allWorse:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case worse < 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mn-mo) > oq3-oq1:
		return "better", worse
	case spread > bound && !allBetter:
		return "unresolved", worse
	}
	return "same", worse
}

// diffFiles prints one row per workload and end-to-end metric and exits 1
// on any worse row or any rise in the share of failed ops.
func diffFiles(spec *benchmarkSpec, oldPath, newPath string) int {
	old, err := readResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	regressed := false
	fmt.Printf("%-20s %-16s %28s %28s %8s %7s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "worse", "bound", "verdict")
	for _, w := range workloads {
		o, n := old.Workloads[w.name], cur.Workloads[w.name]
		if o == nil || n == nil {
			fmt.Printf("%-20s missing from one side\n", w.name)
			regressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			so, sn := o.Metrics[m.Name], n.Metrics[m.Name]
			if so == nil || sn == nil {
				fmt.Printf("%-20s %-16s missing from one side\n", w.name, m.Name)
				regressed = true
				continue
			}
			v, worse := verdict(so.Values, sn.Values, m.Better == "higher", m.Bound)
			if v == "worse" {
				regressed = true
			}
			fmt.Printf("%-20s %-16s %28s %28s %7.1f%% %6.0f%%  %s\n",
				w.name, m.Name, quartileText(so.Values), quartileText(sn.Values), 100*worse, 100*m.Bound, v)
		}
		of, nf := failShare(o), failShare(n)
		fmt.Printf("%-20s %-16s %28.6f %28.6f\n", w.name, "failed share", of, nf)
		if nf > of {
			regressed = true
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func quartileText(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

func failShare(r *workloadRuns) float64 {
	a := sum(r.Attempted)
	if a == 0 {
		return 1
	}
	return float64(sum(r.Failed)) / float64(a)
}
