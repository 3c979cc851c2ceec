package lint

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"susc/internal/budget"
	"susc/internal/faultinject"
	"susc/internal/hash"
	"susc/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(filepath.Join(t.TempDir(), "s.store"), hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func hasInternalError(diags []Diagnostic) bool {
	return slices.ContainsFunc(diags, func(d Diagnostic) bool { return d.Code == CodeInternalError })
}

// TestSourceCachedNeverFilesCutoff: a run cut by its budget reports
// SUSC016 and files nothing, and the next run, unbounded, files its
// findings under the same key.
func TestSourceCachedNeverFilesCutoff(t *testing.T) {
	src, plain := semanticSource(t, "susc011_violable.susc")
	s := openStore(t)
	b := budget.New(context.Background(), budget.Limits{MaxStates: 2})
	if diags := SourceCached(src, s, Options{Analyzers: AllAnalyzers(), Budget: b}); !hasInternalError(diags) {
		t.Fatalf("the cut run reported no SUSC016: %v", diags)
	}
	if st := s.Stats().PerKind[store.KindLint]; st.Writebacks != 0 || st.Entries != 0 {
		t.Fatalf("lint store stats = %+v after a cut run, want nothing filed", st)
	}
	diags := SourceCached(src, s, Options{Analyzers: AllAnalyzers()})
	if !reflect.DeepEqual(diags, plain) {
		t.Fatalf("unbounded run = %v, want %v", diags, plain)
	}
	if st := s.Stats().PerKind[store.KindLint]; st.Writebacks != 1 || st.Entries != 1 {
		t.Fatalf("lint store stats = %+v after the unbounded run, want one record filed", st)
	}
}

// TestSourceCachedConcurrentLintOnce: concurrent identical runs over one
// store lint once: the leader, held in each analyzer, writes the one
// record, and every other caller shares its findings.
func TestSourceCachedConcurrentLintOnce(t *testing.T) {
	src, plain := semanticSource(t, "susc011_violable.susc")
	s := openStore(t)
	restore := faultinject.Set(faultinject.DelayAt(faultinject.LintAnalyzer, 50*time.Millisecond))
	defer restore()
	const callers = 8
	start := make(chan struct{})
	got := make([][]Diagnostic, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = SourceCached(src, s, Options{Analyzers: AllAnalyzers()})
		}()
	}
	close(start)
	wg.Wait()
	for i, diags := range got {
		if !reflect.DeepEqual(diags, plain) {
			t.Fatalf("caller %d = %v, want %v", i, diags, plain)
		}
	}
	if st := s.Stats().PerKind[store.KindLint]; st.Writebacks != 1 {
		t.Fatalf("lint store stats = %+v, want exactly one write-back", st)
	}
}

// TestSourceCachedLeaderPanic: when the caller leading a flight panics
// in its write-back, that caller alone fails; every caller that queued
// behind it still gets the file's findings.
func TestSourceCachedLeaderPanic(t *testing.T) {
	src, plain := semanticSource(t, "susc011_violable.susc")
	s := openStore(t)
	restore := faultinject.Set(faultinject.Chain(
		faultinject.DelayAt(faultinject.LintAnalyzer, 50*time.Millisecond),
		faultinject.PanicOnce(faultinject.StoreWrite, "lint", "lint write-back fault"),
	))
	defer restore()
	const callers = 8
	start := make(chan struct{})
	got := make([][]Diagnostic, callers)
	panicked := make([]bool, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panicked[i] = recover() != nil }()
			<-start
			got[i] = SourceCached(src, s, Options{Analyzers: AllAnalyzers()})
		}()
	}
	close(start)
	wg.Wait()
	failed := 0
	for i, diags := range got {
		if panicked[i] {
			failed++
		} else if !reflect.DeepEqual(diags, plain) {
			t.Fatalf("caller %d = %v, want %v", i, diags, plain)
		}
	}
	if failed != 1 {
		t.Fatalf("%d callers panicked, want the one whose write-back was faulted", failed)
	}
}
