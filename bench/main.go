// Command bench is the repository's fixed benchmark: four workloads that
// drive the system from outside, through the same public calls the susc
// CLI and server make, check every answer against a value known from
// how the input was built, and report named end-to-end and per-layer
// metrics. BENCHMARK.json at the repository root defines the suite;
// README.md explains the workloads and metrics.
//
// Run from the repository root, after building (bench/run.sh builds and
// runs in one step):
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [-spans FILE]
//	bench [-seed N] [-seconds S] [-trace 1] [-spans FILE] [-o FILE]
//	bench -repeat N [-seed N] [-seconds S] [-o FILE]
//	bench -diff OLD.json NEW.json
//
// The first form runs one workload in this process and prints one JSON
// object as its last line. The second runs every workload, each in a child
// process of its own, prints a table and writes a result file; -repeat
// runs N such sets on consecutive seeds and reports each metric's spread;
// -diff compares two result files against the bounds in BENCHMARK.json.
// Every form first checks that BENCHMARK.json names exactly the workloads
// and metrics bench prints, and exits 2 if it does not.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in-process and print its result as a JSON line")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 0, "seconds each run measures (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write every span as NDJSON to this file")
	out := fs.String("o", "", "result file of a suite or -repeat run (default .bench_build/result.json)")
	repeat := fs.Int("repeat", 0, "run this many full sets, on seeds seed, seed+1, ..., and report each metric's spread")
	diff := fs.Bool("diff", false, "compare two result files, OLD.json NEW.json, against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "result.json")
	}

	switch {
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -diff wants OLD.json NEW.json")
			return 2
		}
		return diffFiles(spec, fs.Arg(0), fs.Arg(1))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return runSingle(w, root, *seed, *seconds, *trace == 1, *spans)
	case *repeat > 0:
		return repeatSets(*seed, *repeat, *seconds, *out)
	default:
		return runSuite(*seed, *seconds, *trace == 1, *spans, *out)
	}
}

// runSingle runs one workload and prints its result line; a wrong answer
// still prints the result, with correct false, and exits 1.
func runSingle(w workload, root string, seed int64, seconds float64, traced bool, spans string) int {
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: seed, seconds: seconds, trace: traced, root: root, work: work}
	res, err := runOne(w, cfg, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot returns the nearest directory at or above the working
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if got, want := spec.names(), codeNames(); got != want {
		return nil, fmt.Errorf("BENCHMARK.json lists\n%s\nbench prints\n%s", got, want)
	}
	return &spec, nil
}

// names lists the spec's workloads and metrics, with units, in order.
func (s *benchmarkSpec) names() string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, "workload "+w.Name)
	}
	for _, m := range s.EndToEnd {
		out = append(out, "end_to_end "+m.Name+" "+m.Unit)
	}
	for _, m := range s.PerLayer {
		out = append(out, "per_layer "+m.Name+" "+m.Unit)
	}
	return strings.Join(out, "\n")
}

// codeNames is names for what bench prints.
func codeNames() string {
	var out []string
	for _, w := range workloads {
		out = append(out, "workload "+w.name)
	}
	for _, m := range endToEnd {
		out = append(out, "end_to_end "+m.name+" "+m.unit)
	}
	for _, m := range perLayer {
		out = append(out, "per_layer "+m.name+" "+m.unit)
	}
	return strings.Join(out, "\n")
}
