package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errc := make(chan error, 1)
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		buf.ReadFrom(r)
		close(done)
	}()
	errc <- fn()
	w.Close()
	<-done
	os.Stdout = old
	return buf.String(), <-errc
}

const hotelFile = "../../testdata/hotel.susc"

func TestCmdParse(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"parse", hotelFile}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"instance phi1", "service  br", "client   c1"} {
		if !strings.Contains(out, want) {
			t.Errorf("parse output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdProject(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"project", hotelFile}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Req?") || strings.Contains(out, "sgn") {
		t.Errorf("projection should keep communications and drop events:\n%s", out)
	}
}

func TestCmdCompliance(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"compliance", hotelFile}) })
	if err != nil {
		t.Fatal(err)
	}
	// the broker's request r3 row: s2 must be "no"
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "br.r3") {
			found = true
			fields := strings.Fields(line)
			// header order: br s1 s2 s3 s4
			if fields[1] != "no" || fields[2] != "YES" || fields[3] != "no" ||
				fields[4] != "YES" || fields[5] != "YES" {
				t.Errorf("br.r3 row wrong: %q", line)
			}
		}
	}
	if !found {
		t.Errorf("no br.r3 row:\n%s", out)
	}
}

func TestCmdValidity(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"validity", hotelFile}) })
	if err != nil {
		t.Fatal(err)
	}
	var s1Line, s3Line string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "s1") {
			s1Line = line
		}
		if strings.HasPrefix(line, "s3") {
			s3Line = line
		}
	}
	// s1 violates both, s3 violates only phi2
	if !strings.Contains(s1Line, "VIOL") {
		t.Errorf("s1 line = %q", s1Line)
	}
	f := strings.Fields(s3Line)
	if len(f) != 3 || f[1] != "ok" || f[2] != "VIOL" {
		t.Errorf("s3 line = %q", s3Line)
	}
}

func TestCmdPlans(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{r2>br,r3>s4}") || !strings.Contains(out, "1 valid") {
		t.Errorf("plans output:\n%s", out)
	}
}

func TestCmdPlansStream(t *testing.T) {
	// -stream must print the same assessments as the batch path, one per
	// line as they arrive, followed by the same summary.
	batch, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c2", "-stream"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != batch {
		t.Errorf("-stream output differs from batch:\nbatch:\n%s\nstream:\n%s", batch, streamed)
	}
}

func TestCmdPlansStreamJSON(t *testing.T) {
	// -stream -json emits one JSON object per line; the concatenation must
	// decode to the same entries as the batch -json array, in order.
	out, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c2", "-stream", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Plan   map[string]string `json:"plan"`
		Report struct {
			Verdict string `json:"verdict"`
		} `json:"report"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var got []entry
	for dec.More() {
		var e entry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decode streamed object %d: %v\n%s", len(got), err, out)
		}
		got = append(got, e)
	}
	batchOut, err := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c2", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []entry
	if err := json.Unmarshal([]byte(batchOut), &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d entries, batch has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Report.Verdict != want[i].Report.Verdict ||
			len(got[i].Plan) != len(want[i].Plan) {
			t.Errorf("entry %d differs: stream %+v, batch %+v", i, got[i], want[i])
		}
		for r, l := range want[i].Plan {
			if got[i].Plan[r] != l {
				t.Errorf("entry %d binds %s to %s, batch to %s", i, r, got[i].Plan[r], l)
			}
		}
	}
}

func TestCmdPlansStats(t *testing.T) {
	// -stats reports the work counters on stderr, keeping stdout intact.
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	var errBuf bytes.Buffer
	done := make(chan struct{})
	go func() {
		errBuf.ReadFrom(r)
		close(done)
	}()
	out, runErr := capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c2", "-stats"})
	})
	w.Close()
	<-done
	os.Stderr = oldErr
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !strings.Contains(out, "1 valid") {
		t.Errorf("plans output:\n%s", out)
	}
	stderr := errBuf.String()
	for _, want := range []string{"stats: cache", "hit rate", "stats: fused", "states expanded"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-stats stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestCmdStatsCacheLine: every mode that takes -stats prints exactly one
// memory-tier line, in the shape CI's audit gate parses.
func TestCmdStatsCacheLine(t *testing.T) {
	line := regexp.MustCompile(`(?m)^stats: cache \d+ hits, \d+ misses \(\d+\.\d% hit rate\), \d+ entries, ~\d+ bytes$`)
	for _, args := range [][]string{
		{"lint", hotelFile},
		{"audit", hotelFile},
		{"check", hotelFile, "-client", "c1"},
		{"checkall", hotelFile},
		{"plans", hotelFile, "-client", "c1"},
	} {
		_, stderr, err := captureBoth(t, func() error {
			return run(append(args, "-stats"))
		})
		if err != nil {
			t.Fatalf("%s: %v", args[0], err)
		}
		if strings.Count(stderr, "stats: cache") != 1 || !line.MatchString(stderr) {
			t.Errorf("%s -stats: want one well-formed cache line:\n%s", args[0], stderr)
		}
	}
}

func TestCmdCheck(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"check", hotelFile, "-client", "c1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "valid") {
		t.Errorf("check output:\n%s", out)
	}
}

func TestCmdRun(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"run", hotelFile, "-client", "c1", "-seed", "3", "-monitor"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "status: completed") {
		t.Errorf("run output:\n%s", out)
	}
	if !strings.Contains(out, "history of c1:") {
		t.Errorf("run output missing history:\n%s", out)
	}
}

func TestCmdErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus", hotelFile},
		{"parse"},
		{"parse", "no-such-file.susc"},
		{"plans", hotelFile}, // two clients, none picked
		{"check", hotelFile, "-client", "nobody"}, // unknown client
		// A command rejects every flag it does not read.
		{"parse", hotelFile, "-json"},
		{"fmt", hotelFile, "-cache", t.TempDir()},
		{"explain", hotelFile, "-cache", t.TempDir()},
		{"plans", hotelFile, "-client", "c1", "-severity", "error"},
		{"plans", hotelFile, "-client", "c1", "-workers", "2"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCmdCheckRejectsInvalidPlan(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(hotelFile)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(src), "r3 -> s3", "r3 -> s2", 1)
	path := dir + "/bad.susc"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, func() error { return run([]string{"check", path, "-client", "c1"}) })
	if err == nil || !strings.Contains(err.Error(), "not valid") {
		t.Errorf("err = %v, want plan-not-valid", err)
	}
}

func TestCmdFmtRoundTrip(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"fmt", hotelFile}) })
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/fmt.susc"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := capture(t, func() error { return run([]string{"fmt", path}) })
	if err != nil {
		t.Fatalf("formatted output failed to re-parse: %v\n%s", err, out)
	}
	if out != out2 {
		t.Errorf("fmt not idempotent")
	}
	// the reformatted file still validates
	if _, err := capture(t, func() error {
		return run([]string{"check", path, "-client", "c1"})
	}); err != nil {
		t.Errorf("reformatted file fails check: %v", err)
	}
}

func TestCmdDot(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"dot", hotelFile, "-policy", "phi"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "doublecircle") {
		t.Errorf("policy dot output:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"dot", hotelFile, "-lts", "br"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "open[r3,0]") {
		t.Errorf("lts dot output misses the nested open:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"dot", hotelFile, "-product", "br.r3", "-vs", "s2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "color=red") {
		t.Errorf("product dot should show the stuck state in red:\n%s", out)
	}
	// error paths
	for _, args := range [][]string{
		{"dot", hotelFile},
		{"dot", hotelFile, "-policy", "zzz"},
		{"dot", hotelFile, "-lts", "zzz"},
		{"dot", hotelFile, "-product", "broken"},
		{"dot", hotelFile, "-product", "br.r3", "-vs", "zzz"},
		{"dot", hotelFile, "-product", "br.zzz", "-vs", "s2"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCmdEffect(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"effect", "../../testdata/client.lam", "-decls", hotelFile})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type   : unit", "Req!.(CoBo?.Pay! + NoAv?)", "{r1>br,r3>s3}"} {
		if !strings.Contains(out, want) {
			t.Errorf("effect output missing %q:\n%s", want, out)
		}
	}
	// without declarations: type and effect only
	out, err = capture(t, func() error {
		return run([]string{"effect", "../../testdata/client.lam"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "plans") {
		t.Errorf("effect without decls should not classify plans:\n%s", out)
	}
	// an ill-typed program fails
	dir := t.TempDir()
	bad := dir + "/bad.lam"
	if err := os.WriteFile(bad, []byte("(fun x: int . x) ()"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error { return run([]string{"effect", bad}) }); err == nil {
		t.Error("ill-typed program should fail")
	}
}

func TestCmdSubstitutable(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"substitutable", hotelFile, "-old", "s1", "-new", "s3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "EQUIVALENT") {
		t.Errorf("s1/s3 should be equivalent:\n%s", out)
	}
	_, err = capture(t, func() error {
		return run([]string{"substitutable", hotelFile, "-old", "s1", "-new", "s2"})
	})
	if err == nil {
		t.Error("s2 must not substitute s1")
	}
	for _, args := range [][]string{
		{"substitutable", hotelFile},
		{"substitutable", hotelFile, "-old", "zzz", "-new", "s1"},
		{"substitutable", hotelFile, "-old", "s1", "-new", "zzz"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCmdDual(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"dual", hotelFile, "-of", "br.r3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dual     : IdC?.(Bok! (+) UnA!)") {
		t.Errorf("dual output:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"dual", hotelFile, "-of", "s1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dual     : IdC!.(Bok? + UnA?)") {
		t.Errorf("dual of s1:\n%s", out)
	}
	for _, args := range [][]string{
		{"dual", hotelFile},
		{"dual", hotelFile, "-of", "zzz"},
		{"dual", hotelFile, "-of", "br.zzz"},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestCmdCheckAll(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"checkall", hotelFile}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "network of 2 client(s): valid") {
		t.Errorf("checkall output:\n%s", out)
	}
	// bounded availability still verifies (sessions are sequential enough)
	out, err = capture(t, func() error {
		return run([]string{"checkall", hotelFile, "-cap", "br=1,s3=1,s4=1"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// zero brokers: both clients are stuck at their first open, however
	// the bound is spaced
	for _, spec := range []string{"br=0", "br =0", " br = 0 "} {
		out, err := capture(t, func() error {
			return run([]string{"checkall", hotelFile, "-cap", spec})
		})
		if err == nil || !strings.Contains(out, "network of 2 client(s): deadlock") {
			t.Errorf("-cap %q: checkall with no brokers should fail (%v):\n%s", spec, err, out)
		}
	}
	// malformed -cap, a location given twice, or a bound on a location the
	// file does not declare: rejected before any check runs
	for _, bad := range []string{"br", "br=x", "br=1.5", "br=-1", "nosuch=1", "br=1,br=0", "br=0,br=1"} {
		if _, err := capture(t, func() error {
			return run([]string{"checkall", hotelFile, "-cap", bad})
		}); err == nil || !strings.Contains(err.Error(), "-cap") {
			t.Errorf("-cap %q should be rejected, got %v", bad, err)
		}
	}
}

func TestCmdJSONOutput(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"check", hotelFile, "-client", "c1", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Verdict string `json:"verdict"`
		States  int    `json:"states"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if report.Verdict != "valid" || report.States == 0 {
		t.Errorf("report = %+v", report)
	}
	out, err = capture(t, func() error {
		return run([]string{"plans", hotelFile, "-client", "c1", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var assessments []struct {
		Plan   map[string]string `json:"plan"`
		Report struct {
			Verdict string `json:"verdict"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(out), &assessments); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	validCount := 0
	for _, a := range assessments {
		if a.Report.Verdict == "valid" {
			validCount++
			if a.Plan["r3"] != "s3" {
				t.Errorf("valid plan = %v", a.Plan)
			}
		}
	}
	if validCount != 1 {
		t.Errorf("valid plans in JSON = %d", validCount)
	}
}

func TestCmdRunAll(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"run", hotelFile, "-all", "-seed", "5", "-monitor"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status: completed", "history of c1:", "history of c2:", "[c2]"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -all output missing %q:\n%s", want, out)
		}
	}
	// with zero broker replicas both clients starve
	out, err = capture(t, func() error {
		return run([]string{"run", hotelFile, "-all", "-cap", "br=0"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "status: deadlock") {
		t.Errorf("capacity-starved run should deadlock:\n%s", out)
	}
	// malformed cap on run, or one on a location the file does not declare
	for _, bad := range []string{"oops", "nosuch=1"} {
		if _, err := capture(t, func() error {
			return run([]string{"run", hotelFile, "-all", "-cap", bad})
		}); err == nil {
			t.Errorf("-cap %q should fail", bad)
		}
	}
}

func TestCmdLint(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"lint", hotelFile}) })
	if err != nil {
		t.Fatalf("warnings must not fail the command: %v", err)
	}
	if !strings.Contains(out, "[SUSC005]") || !strings.Contains(out, hotelFile+":22:9:") {
		t.Errorf("lint output missing the positioned s2 finding:\n%s", out)
	}
}

func TestCmdLintSeverityThreshold(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"lint", hotelFile, "-severity", "error"}) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("at -severity error hotel.susc should be clean, got:\n%s", out)
	}
	if _, err := capture(t, func() error { return run([]string{"lint", hotelFile, "-severity", "fatal"}) }); err == nil {
		t.Error("unknown severity accepted")
	}
}

func TestCmdLintErrorsFail(t *testing.T) {
	bad := "../../internal/lint/testdata/susc006_unmatched.susc"
	out, err := capture(t, func() error { return run([]string{"lint", bad}) })
	if err == nil {
		t.Fatalf("error findings must yield a non-zero exit, output:\n%s", out)
	}
	if !strings.Contains(out, "[SUSC006]") {
		t.Errorf("missing SUSC006 finding:\n%s", out)
	}
}

func TestCmdLintJSON(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"lint", hotelFile, "-json"}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one NDJSON line, got %d:\n%s", len(lines), out)
	}
	var entry struct {
		File     string `json:"file"`
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Span     struct {
			Start struct{ Line, Col int }
		} `json:"span"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("invalid NDJSON: %v\n%s", err, lines[0])
	}
	if entry.File != hotelFile || entry.Code != "SUSC005" || entry.Severity != "warning" ||
		entry.Span.Start.Line != 22 || entry.Span.Start.Col != 9 || entry.Message == "" {
		t.Errorf("unexpected NDJSON entry: %+v", entry)
	}
}

func TestCmdLintParseError(t *testing.T) {
	bad := "../../internal/lint/testdata/parse_error.susc"
	out, err := capture(t, func() error { return run([]string{"lint", bad}) })
	if err == nil {
		t.Fatal("syntax errors must yield a non-zero exit")
	}
	if !strings.Contains(out, "[SUSC000]") || !strings.Contains(out, ":3:") {
		t.Errorf("want a positioned SUSC000 finding:\n%s", out)
	}
}

var updateExplain = flag.Bool("update", false, "rewrite .explain.golden files")

// TestCmdExplainGolden pins the text output of `susc explain` on every
// semantic fixture byte-for-byte: witness rendering is public, stable
// output. Run with -update to regenerate.
func TestCmdExplainGolden(t *testing.T) {
	matches, err := filepath.Glob("../../internal/lint/testdata/semantic/*.susc")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no semantic fixtures: %v", err)
	}
	for _, path := range matches {
		t.Run(filepath.Base(path), func(t *testing.T) {
			// Error-severity findings make the command fail by design; the
			// output is still the object under test.
			out, _ := capture(t, func() error { return run([]string{"explain", path}) })
			golden := path + ".explain.golden"
			if *updateExplain {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./cmd/susc -run TestCmdExplainGolden -update`): %v", err)
			}
			if out != string(want) {
				t.Errorf("explain output mismatch\n--- got ---\n%s--- want ---\n%s", out, want)
			}
		})
	}
}

// TestCmdExplainClean checks that a witness-free specification yields no
// output and a zero exit status (the CI smoke contract).
func TestCmdExplainClean(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"explain", "../../internal/lint/testdata/semantic/clean.susc"})
	})
	if err != nil {
		t.Fatalf("explain on a clean file failed: %v", err)
	}
	if out != "" {
		t.Errorf("explain on a clean file printed output:\n%s", out)
	}
}

// TestCmdExplainCodeFilter checks -code keeps only the requested findings.
func TestCmdExplainCodeFilter(t *testing.T) {
	fix := "../../internal/lint/testdata/semantic/susc015_deadautomaton.susc"
	out, err := capture(t, func() error { return run([]string{"explain", fix, "-code", "SUSC015"}) })
	if err != nil {
		t.Fatalf("info findings must not fail the command: %v", err)
	}
	if !strings.Contains(out, "[SUSC015]") || strings.Contains(out, "[SUSC011]") {
		t.Errorf("-code SUSC015 output wrong:\n%s", out)
	}
	out, err = capture(t, func() error { return run([]string{"explain", fix, "-code", "SUSC011"}) })
	if err != nil || out != "" {
		t.Errorf("-code SUSC011 should match nothing here, got err=%v out:\n%s", err, out)
	}
}

// TestCmdExplainRejectsUnknownCode: -code takes only a code explain can
// report with a witness (SUSC011–015). A typo, a lower-case code or an
// audit code used to print nothing and exit 0, reporting an unrealizable
// client as clean; it now exits 1, listing the valid codes.
func TestCmdExplainRejectsUnknownCode(t *testing.T) {
	fix := "../../internal/lint/testdata/semantic/susc013_unrealizable.susc"
	out, err := capture(t, func() error { return run([]string{"explain", fix, "-code", "SUSC013"}) })
	if exitCode(err) != 1 || !strings.Contains(out, "[SUSC013]") {
		t.Fatalf("-code SUSC013: exit %d, out:\n%s", exitCode(err), out)
	}
	for _, code := range []string{"susc013", "SUSC999", "SUSC017", "SUSC006"} {
		out, err := capture(t, func() error { return run([]string{"explain", fix, "-code", code}) })
		if err == nil || exitCode(err) != 1 || out != "" {
			t.Fatalf("-code %s: exit %d, err %v, out %q: want exit 1 and no output", code, exitCode(err), err, out)
		}
		for _, valid := range []string{"SUSC011", "SUSC012", "SUSC013", "SUSC014", "SUSC015"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("-code %s: the error %q does not list %s", code, err, valid)
			}
		}
	}
}

// TestCmdExplainJSON checks the NDJSON stream carries the witness.
func TestCmdExplainJSON(t *testing.T) {
	fix := "../../internal/lint/testdata/semantic/susc011_violable.susc"
	out, _ := capture(t, func() error { return run([]string{"explain", fix, "-json"}) })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one NDJSON line, got %d:\n%s", len(lines), out)
	}
	var entry struct {
		File    string `json:"file"`
		Code    string `json:"code"`
		Witness struct {
			Kind  string `json:"kind"`
			Steps []struct {
				Label string `json:"label"`
				State string `json:"state"`
			} `json:"steps"`
		} `json:"witness"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("invalid NDJSON: %v\n%s", err, lines[0])
	}
	if entry.Code != "SUSC011" || entry.Witness.Kind != "violation" || len(entry.Witness.Steps) != 3 ||
		entry.Witness.Steps[2].State != "qv" {
		t.Errorf("unexpected NDJSON entry: %+v", entry)
	}
}

// TestCmdExplainDot checks -wdot emits one digraph per witness.
func TestCmdExplainDot(t *testing.T) {
	fix := "../../internal/lint/testdata/semantic/susc014_subsumed.susc"
	out, err := capture(t, func() error { return run([]string{"explain", fix, "-wdot"}) })
	if err != nil {
		t.Fatalf("warning findings must not fail the command: %v", err)
	}
	if !strings.Contains(out, `digraph "SUSC014_0"`) || !strings.Contains(out, "doublecircle") {
		t.Errorf("-wdot output is not a digraph:\n%s", out)
	}
}

// TestCmdRefusesRequestClash: services a and b open r9 with two bodies,
// and the client's declared plan reaches both. The engines keep one body
// per request identifier, so check, checkall and plans refuse the spec
// with the parser's positioned error (exit 1) instead of judging it.
func TestCmdRefusesRequestClash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clash.susc")
	src := `service a = X? . open r9 { Q! } . Ka!;
service b = Y? . open r9 { Q! (+) Z! } . Kb!;
service c = Q?;
client cl at cl plan { r1 -> a, r2 -> b, r9 -> c } = open r1 { X! . Ka? } . open r2 { Y! . Kb? };
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "parser: 2:23: request r9 is opened with another body than in service a at 1:23"
	for _, args := range [][]string{
		{"check", path, "-client", "cl"},
		{"checkall", path},
		{"plans", path, "-client", "cl"},
	} {
		out, err := capture(t, func() error { return run(args) })
		if err == nil || err.Error() != want || exitCode(err) != 1 {
			t.Errorf("%s: err = %v (exit %d), want %q (exit 1)", args[0], err, exitCode(err), want)
		}
		if strings.Contains(out, "valid") {
			t.Errorf("%s printed a verdict: %q", args[0], out)
		}
	}
}
