package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"susc/internal/benchgen"
)

// captureBoth runs fn with stdout and stderr redirected (the verdict goes
// to stdout, `-stats` lines to stderr) and returns both.
func captureBoth(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	re, we, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	os.Stdout, os.Stderr = wo, we
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	var bufOut, bufErr bytes.Buffer
	done := make(chan struct{}, 2)
	go func() { bufOut.ReadFrom(ro); done <- struct{}{} }()
	go func() { bufErr.ReadFrom(re); done <- struct{}{} }()
	err = fn()
	wo.Close()
	we.Close()
	<-done
	<-done
	os.Stdout, os.Stderr = oldOut, oldErr
	return bufOut.String(), bufErr.String(), err
}

// storeKindLine extracts (hits, misses) from a `stats: store/<kind> …`
// stderr line — the same line the CI incremental-smoke job gates on.
func storeKindLine(t *testing.T, stderr, kind string) (hits, misses int) {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`stats: store/%s (\d+) hits, (\d+) misses`, kind))
	m := re.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no stats: store/%s line in stderr:\n%s", kind, stderr)
	}
	hits, _ = strconv.Atoi(m[1])
	misses, _ = strconv.Atoi(m[2])
	return hits, misses
}

// TestCmdCheckAllCache is the end-to-end incremental loop: a cold
// `checkall -cache` populates the store, a warm rerun replays every plan
// verdict from disk with identical output, and a one-declaration edit
// recomputes exactly the edited service's dependency cone — one client of
// six.
func TestCmdCheckAllCache(t *testing.T) {
	const depth, fanout, n = 3, 3, 6
	dir := t.TempDir()
	spec := filepath.Join(dir, "clients.susc")
	cacheDir := filepath.Join(dir, "cache")
	src := benchgen.ChainedClientsSource(depth, fanout, n)
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	wantVerdict := fmt.Sprintf("network of %d client(s): valid", n)

	coldOut, coldErr, err := captureBoth(t, func() error {
		return run([]string{"checkall", spec, "-cache", cacheDir, "-stats"})
	})
	if err != nil {
		t.Fatalf("cold: %v\n%s", err, coldErr)
	}
	if !strings.Contains(coldOut, wantVerdict) {
		t.Fatalf("cold verdict:\n%s", coldOut)
	}
	if !strings.Contains(coldErr, "stats: store ") {
		t.Fatalf("cold run printed no store stats:\n%s", coldErr)
	}
	if _, misses := storeKindLine(t, coldErr, "plan"); misses != n {
		t.Fatalf("cold run: %d plan misses, want %d", misses, n)
	}

	warmOut, warmErr, err := captureBoth(t, func() error {
		return run([]string{"checkall", spec, "-cache", cacheDir, "-stats"})
	})
	if err != nil {
		t.Fatalf("warm: %v\n%s", err, warmErr)
	}
	if warmOut != coldOut {
		t.Fatalf("warm stdout differs from cold:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	hits, misses := storeKindLine(t, warmErr, "plan")
	if hits != n || misses != 0 {
		t.Fatalf("warm run: %d hits, %d misses; want %d and 0", hits, misses, n)
	}
	if lh, lm := storeKindLine(t, warmErr, "lint"); lh != 1 || lm != 0 {
		t.Fatalf("warm run: lint %d hits, %d misses; want 1 and 0", lh, lm)
	}

	// One-declaration edit: client 0's divergent service s1_1 gains an
	// extra signing event. Only that client's cone may recompute.
	w := benchgen.ChainedClients(depth, fanout, n)
	target := string(w.Divergent(0))
	needle := fmt.Sprintf("sgn(%s)", target)
	if !strings.Contains(src, needle) {
		t.Fatalf("rendered source has no %q", needle)
	}
	edited := strings.Replace(src, needle, needle+" . sgn(edited)", 1)
	if err := os.WriteFile(spec, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	editOut, editErr, err := captureBoth(t, func() error {
		return run([]string{"checkall", spec, "-cache", cacheDir, "-stats"})
	})
	if err != nil {
		t.Fatalf("edit: %v\n%s", err, editErr)
	}
	if !strings.Contains(editOut, wantVerdict) {
		t.Fatalf("edit verdict:\n%s", editOut)
	}
	hits, misses = storeKindLine(t, editErr, "plan")
	if misses != 1 || hits != n-1 {
		t.Fatalf("after editing %s: %d plan misses, %d hits; want exactly 1 and %d",
			target, misses, hits, n-1)
	}
	if _, lm := storeKindLine(t, editErr, "lint"); lm != 1 {
		t.Fatalf("edited file should miss the lint cache once, got %d", lm)
	}
}

// TestCmdCheckCache: `check -client … -cache` replays a single client's
// verdict from the store.
func TestCmdCheckCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	cold, coldErr, err := captureBoth(t, func() error {
		return run([]string{"check", hotelFile, "-client", "c1", "-cache", cacheDir, "-stats"})
	})
	if err != nil {
		t.Fatalf("cold: %v\n%s", err, coldErr)
	}
	warm, warmErr, err := captureBoth(t, func() error {
		return run([]string{"check", hotelFile, "-client", "c1", "-cache", cacheDir, "-stats"})
	})
	if err != nil {
		t.Fatalf("warm: %v\n%s", err, warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if hits, misses := storeKindLine(t, warmErr, "plan"); hits != 1 || misses != 0 {
		t.Fatalf("warm check: %d hits, %d misses; want 1 and 0", hits, misses)
	}
}

// TestCmdPlansCacheFeedsCheck: a plans sweep files each plan's verdict
// under the key a check of that plan reads, so `check -cache` after
// `plans -cache` on the same file answers c1's declared plan from the
// store.
func TestCmdPlansCacheFeedsCheck(t *testing.T) {
	const booking = "../../examples/specs/booking.susc"
	cacheDir := filepath.Join(t.TempDir(), "cache")
	if _, stderr, err := captureBoth(t, func() error {
		return run([]string{"plans", booking, "-client", "c1", "-cache", cacheDir})
	}); err != nil {
		t.Fatalf("plans: %v\n%s", err, stderr)
	}
	out, stderr, err := captureBoth(t, func() error {
		return run([]string{"check", booking, "-client", "c1", "-cache", cacheDir, "-stats"})
	})
	if err != nil {
		t.Fatalf("check: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "valid (13 states)") {
		t.Fatalf("check verdict: %s", out)
	}
	if hits, misses := storeKindLine(t, stderr, "plan"); hits != 1 || misses != 0 {
		t.Fatalf("check after plans: %d plan hits, %d misses; want 1 and 0", hits, misses)
	}
}

// TestCmdAuditSharesStoreKeys: the audit reads and files its records
// under the keys the other modes use. After `plans -cache`, the audit's
// sweep answers every verdict of Chained(12,2) from the store; after
// `audit -cache`, `checkall -cache` answers every declared-plan flow of
// hotel.susc from it.
func TestCmdAuditSharesStoreKeys(t *testing.T) {
	const chained = "../../internal/benchgen/testdata/chained-12-2.susc"
	dir := t.TempDir()
	steps := []struct {
		first, second []string
		kind          string
		hits          int
	}{
		{[]string{"plans", chained, "-client", "cl"}, []string{"audit", chained, "-json"}, "plan", 4096},
		{[]string{"audit", hotelFile}, []string{"checkall", hotelFile}, "audit", 2},
	}
	for i, st := range steps {
		cacheDir := filepath.Join(dir, strconv.Itoa(i))
		if _, stderr, err := captureBoth(t, func() error {
			return run(append(st.first, "-cache", cacheDir))
		}); err != nil {
			t.Fatalf("%s: %v\n%s", st.first[0], err, stderr)
		}
		_, stderr, err := captureBoth(t, func() error {
			return run(append(st.second, "-cache", cacheDir, "-stats"))
		})
		if err != nil {
			t.Fatalf("%s after %s: %v\n%s", st.second[0], st.first[0], err, stderr)
		}
		if hits, misses := storeKindLine(t, stderr, st.kind); hits != st.hits || misses != 0 {
			t.Errorf("%s after %s: store/%s %d hits, %d misses; want %d and 0",
				st.second[0], st.first[0], st.kind, hits, misses, st.hits)
		}
	}
}

// TestCmdCheckAllCacheWithCaps: the bounded-availability path persists
// whole-network verdicts and replays them warm, with identical output.
func TestCmdCheckAllCacheWithCaps(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := []string{"checkall", hotelFile, "-cap", "br=1,s3=1,s4=1", "-cache", cacheDir, "-stats"}

	cold, coldErr, err := captureBoth(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("cold: %v\n%s", err, coldErr)
	}
	warm, warmErr, err := captureBoth(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("warm: %v\n%s", err, warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if hits, misses := storeKindLine(t, warmErr, "network"); hits != 1 || misses != 0 {
		t.Fatalf("warm network: %d hits, %d misses; want 1 and 0", hits, misses)
	}
}

// TestCmdLintCache: lint replays a clean file's findings from disk at
// whole-file granularity.
func TestCmdLintCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := []string{"lint", hotelFile, "-cache", cacheDir, "-stats"}

	cold, coldErr, err := captureBoth(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("cold: %v\n%s", err, coldErr)
	}
	warm, warmErr, err := captureBoth(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("warm: %v\n%s", err, warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if hits, misses := storeKindLine(t, warmErr, "lint"); hits != 1 || misses != 0 {
		t.Fatalf("warm lint: %d hits, %d misses; want 1 and 0", hits, misses)
	}
}
