package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"susc/internal/hash"
)

func sumOf(s string) hash.Sum {
	h := hash.New()
	h.Str(s)
	return h.Sum()
}

func openT(t *testing.T, path string, fp hash.Sum) *Store {
	t.Helper()
	s, err := Open(path, fp)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	fp := hash.Fingerprint()
	s := openT(t, path, fp)
	if err := s.Put(KindCompliance, sumOf("a"), []byte("verdict-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindPlanReport, sumOf("b"), []byte("report-b")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(KindCompliance, sumOf("a")); !ok || string(v) != "verdict-a" {
		t.Fatalf("Get a = %q, %v", v, ok)
	}
	if _, ok := s.Get(KindCompliance, sumOf("b")); ok {
		t.Fatal("kind must partition the key space")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: index rebuilt from the log.
	s2 := openT(t, path, fp)
	defer s2.Close()
	if v, ok := s2.Get(KindPlanReport, sumOf("b")); !ok || string(v) != "report-b" {
		t.Fatalf("after reopen Get b = %q, %v", v, ok)
	}
	st := s2.Stats()
	if st.Replayed != 2 || st.HealedBytes != 0 || st.Reset {
		t.Fatalf("reopen stats = %+v", st)
	}
}

func TestLastWriterWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	fp := hash.Fingerprint()
	s := openT(t, path, fp)
	k := sumOf("k")
	for i := 0; i < 3; i++ {
		if err := s.Put(KindLint, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := s.Get(KindLint, k); string(v) != "v2" {
		t.Fatalf("resident = %q", v)
	}
	st := s.Stats().PerKind[KindLint]
	if st.Entries != 1 || st.Bytes != 2 {
		t.Fatalf("lint table stats = %+v", st)
	}
	s.Close()
	s2 := openT(t, path, fp)
	defer s2.Close()
	if v, _ := s2.Get(KindLint, k); string(v) != "v2" {
		t.Fatalf("after replay resident = %q", v)
	}
	if st := s2.Stats().PerKind[KindLint]; st.Entries != 1 {
		t.Fatalf("after replay entries = %d", st.Entries)
	}
}

func TestIdenticalPutSkipsIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	s := openT(t, path, hash.Fingerprint())
	defer s.Close()
	k := sumOf("k")
	if err := s.Put(KindCompliance, k, []byte("same")); err != nil {
		t.Fatal(err)
	}
	info1, _ := os.Stat(path)
	if err := s.Put(KindCompliance, k, []byte("same")); err != nil {
		t.Fatal(err)
	}
	info2, _ := os.Stat(path)
	if info1.Size() != info2.Size() {
		t.Fatalf("identical re-Put grew the file: %d -> %d", info1.Size(), info2.Size())
	}
}

// TestCrashSafetyEveryByteBoundary truncates the file at every byte
// boundary of the last record and verifies reopen self-heals: the earlier
// records survive intact and only the torn record is lost.
func TestCrashSafetyEveryByteBoundary(t *testing.T) {
	fp := hash.Fingerprint()
	keep := []struct {
		kind Kind
		key  hash.Sum
		val  string
	}{
		{KindCompliance, sumOf("c1"), "compliance-one"},
		{KindPlanReport, sumOf("p1"), "plan-report-one"},
	}
	lastKey, lastVal := sumOf("torn"), "the-record-a-crash-tears"

	// Build a pristine store once to learn the boundary offsets.
	proto := filepath.Join(t.TempDir(), "proto.store")
	s := openT(t, proto, fp)
	for _, r := range keep {
		if err := s.Put(r.kind, r.key, []byte(r.val)); err != nil {
			t.Fatal(err)
		}
	}
	info, _ := os.Stat(proto)
	goodEnd := info.Size()
	if err := s.Put(KindLTSSummary, lastKey, []byte(lastVal)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	full, err := os.ReadFile(proto)
	if err != nil {
		t.Fatal(err)
	}

	for cut := goodEnd; cut <= int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.store")
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s := openT(t, path, fp)
			defer s.Close()
			st := s.Stats()
			for _, r := range keep {
				if v, ok := s.peek(r.kind, r.key); !ok || string(v) != r.val {
					t.Fatalf("lost intact record %q: %q, %v", r.val, v, ok)
				}
			}
			_, tornPresent := s.peek(KindLTSSummary, lastKey)
			if cut == int64(len(full)) {
				if !tornPresent {
					t.Fatal("complete file lost its last record")
				}
				if st.HealedBytes != 0 {
					t.Fatalf("complete file healed %d bytes", st.HealedBytes)
				}
			} else {
				if tornPresent {
					t.Fatalf("torn record at cut %d served from the index", cut)
				}
				if st.Replayed != len(keep) {
					t.Fatalf("replayed %d, want %d", st.Replayed, len(keep))
				}
				if st.HealedBytes != int64(len(full))-goodEnd-(int64(len(full))-cut) {
					t.Fatalf("healed %d bytes at cut %d", st.HealedBytes, cut)
				}
				// The heal must leave a writable store: the lost entry is
				// recomputed and persisted again.
				if err := s.Put(KindLTSSummary, lastKey, []byte(lastVal)); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			// A healed-and-rewritten store replays clean.
			s2 := openT(t, path, fp)
			defer s2.Close()
			if v, ok := s2.peek(KindLTSSummary, lastKey); !ok || string(v) != lastVal {
				t.Fatalf("recomputed record lost on second reopen: %q, %v", v, ok)
			}
			if st := s2.Stats(); st.HealedBytes != 0 {
				t.Fatalf("second reopen healed %d bytes", st.HealedBytes)
			}
		})
	}
}

// TestCrashSafetyCorruptTail flips each byte of the last record in turn;
// the checksum must reject it and the heal must preserve earlier records.
func TestCrashSafetyCorruptTail(t *testing.T) {
	fp := hash.Fingerprint()
	proto := filepath.Join(t.TempDir(), "proto.store")
	s := openT(t, proto, fp)
	if err := s.Put(KindCompliance, sumOf("keep"), []byte("kept-value")); err != nil {
		t.Fatal(err)
	}
	info, _ := os.Stat(proto)
	goodEnd := info.Size()
	if err := s.Put(KindPlanReport, sumOf("tail"), []byte("tail-value")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	full, err := os.ReadFile(proto)
	if err != nil {
		t.Fatal(err)
	}

	for off := goodEnd; off < int64(len(full)); off++ {
		off := off
		t.Run(fmt.Sprintf("flip@%d", off), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.store")
			mut := append([]byte(nil), full...)
			mut[off] ^= 0xff
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openT(t, path, fp)
			defer s.Close()
			if v, ok := s.peek(KindCompliance, sumOf("keep")); !ok || string(v) != "kept-value" {
				t.Fatalf("lost intact record: %q, %v", v, ok)
			}
			// The flipped byte may corrupt the kind, key, length, value or
			// CRC — in every case the tail record must not be served with a
			// wrong value. (Flipping the kind byte alone keeps the CRC
			// stale, so the record is still rejected.)
			if v, ok := s.peek(KindPlanReport, sumOf("tail")); ok && string(v) != "tail-value" {
				t.Fatalf("served corrupt value %q", v)
			}
			if s.Stats().HealedBytes == 0 {
				t.Fatal("corrupt tail not healed")
			}
		})
	}
}

func TestFingerprintMismatchResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	fpA := sumOf("engine-A")
	fpB := sumOf("engine-B")
	s := openT(t, path, fpA)
	if err := s.Put(KindCompliance, sumOf("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openT(t, path, fpB)
	if _, ok := s2.peek(KindCompliance, sumOf("k")); ok {
		t.Fatal("verdict from another engine served")
	}
	if !s2.Stats().Reset {
		t.Fatal("reset not reported")
	}
	if err := s2.Put(KindCompliance, sumOf("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Reopening under B again is clean and keeps B's records.
	s3 := openT(t, path, fpB)
	defer s3.Close()
	if s3.Stats().Reset {
		t.Fatal("spurious reset")
	}
	if v, ok := s3.peek(KindCompliance, sumOf("k2")); !ok || string(v) != "v2" {
		t.Fatalf("lost record after re-open: %q, %v", v, ok)
	}
}

func TestVersionMismatchResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	fp := hash.Fingerprint()
	s := openT(t, path, fp)
	if err := s.Put(KindCompliance, sumOf("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(magic)]++ // bump the stored version byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, path, fp)
	defer s2.Close()
	if _, ok := s2.peek(KindCompliance, sumOf("k")); ok {
		t.Fatal("record from another format version served")
	}
	if !s2.Stats().Reset {
		t.Fatal("reset not reported")
	}
}

func TestForeignFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("user data, definitely not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, hash.Fingerprint()); err == nil {
		t.Fatal("foreign file opened (and would be truncated) as a store")
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	s := openT(t, path, hash.Fingerprint())
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := sumOf(fmt.Sprintf("w%d-%d", w, i))
				val := []byte(fmt.Sprintf("val-%d-%d", w, i))
				if err := s.Put(KindCompliance, k, val); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if v, ok := s.Get(KindCompliance, k); !ok || string(v) != string(val) {
					t.Errorf("Get after Put = %q, %v", v, ok)
					return
				}
				// Read a neighbour's keys too.
				s.Get(KindCompliance, sumOf(fmt.Sprintf("w%d-%d", (w+1)%workers, i)))
			}
		}()
	}
	wg.Wait()
	s.Close()

	s2 := openT(t, path, hash.Fingerprint())
	defer s2.Close()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := sumOf(fmt.Sprintf("w%d-%d", w, i))
			if v, ok := s2.peek(KindCompliance, k); !ok || string(v) != fmt.Sprintf("val-%d-%d", w, i) {
				t.Fatalf("lost w%d-%d after replay: %q, %v", w, i, v, ok)
			}
		}
	}
}

// stringCodec files strings as their bytes; "unknown" is not
// persistable.
var stringCodec = Codec[string]{
	Kind:        KindPlanReport,
	Encode:      func(v string) ([]byte, error) { return []byte(v), nil },
	Decode:      func(b []byte) (string, error) { return string(b), nil },
	Persistable: func(v string) bool { return v != "unknown" },
}

func TestFillSingleflight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	s := openT(t, path, hash.Fingerprint())
	defer s.Close()
	k := sumOf("cone")
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	const waiters = 16
	results := make(chan string, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := Fill(s, stringCodec, func() hash.Sum { return k }, func() (string, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return "computed", nil
			})
			if err != nil || hit {
				t.Errorf("Fill: hit %v, err %v", hit, err)
			}
			results <- v
		}()
	}
	// Release the leader only once every other caller has joined its
	// flight: the flight shares one execution among concurrent callers,
	// and a caller that arrives after the flight has ended reads the
	// filed record instead.
	for {
		s.flight.mu.Lock()
		c := s.flight.m[ikey{kind: KindPlanReport, sum: k}]
		joined := c != nil && c.joined == waiters-1
		s.flight.mu.Unlock()
		if joined {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(results)
	if calls != 1 {
		t.Fatalf("compute ran %d times under singleflight", calls)
	}
	for v := range results {
		if v != "computed" {
			t.Fatalf("waiter got %v", v)
		}
	}
	// Every caller's read was counted once, as a miss; the re-reads under
	// the flight were not, and the one computation was written once.
	if st := s.Stats().PerKind[KindPlanReport]; st.Misses != waiters || st.Hits != 0 || st.Writebacks != 1 {
		t.Fatalf("plan stats = %+v, want %d misses, 0 hits, 1 write-back", st, waiters)
	}
}

// TestFillNilStore: with no store, Fill is compute, and the key is never
// rendered.
func TestFillNilStore(t *testing.T) {
	calls := 0
	v, hit, err := Fill(nil, stringCodec,
		func() hash.Sum { t.Fatal("key rendered for a nil store"); return hash.Sum{} },
		func() (string, error) { calls++; return "computed", nil })
	if v != "computed" || hit || err != nil || calls != 1 {
		t.Fatalf("Fill(nil) = %q, %v, %v after %d computations", v, hit, err, calls)
	}
}

// TestFillWriteError: a write-back that fails (here on a closed store)
// returns the computed value beside the error, and indexes nothing.
func TestFillWriteError(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "s.store"), hash.Fingerprint())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	k := sumOf("cone")
	v, hit, err := Fill(s, stringCodec, func() hash.Sum { return k },
		func() (string, error) { return "computed", nil })
	if v != "computed" || hit || err == nil {
		t.Fatalf("Fill on a closed store = %q, %v, %v; want the value and a write error", v, hit, err)
	}
	if _, ok := s.peek(KindPlanReport, k); ok {
		t.Fatal("a failed write indexed the record")
	}
	if st := s.Stats().PerKind[KindPlanReport]; st.Entries != 0 || st.Writebacks != 0 {
		t.Fatalf("plan stats = %+v after a failed write", st)
	}
}

// TestFillNeverFilesUnpersistable: a value the codec refuses to persist
// is returned and not written, and a resident record decoding to such a
// value is a miss, recomputed and overwritten.
func TestFillNeverFilesUnpersistable(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "s.store"), hash.Fingerprint())
	defer s.Close()
	k := sumOf("cone")
	key := func() hash.Sum { return k }
	v, hit, err := Fill(s, stringCodec, key, func() (string, error) { return "unknown", nil })
	if v != "unknown" || hit || err != nil {
		t.Fatalf("Fill = %q, %v, %v", v, hit, err)
	}
	if _, ok := s.peek(KindPlanReport, k); ok {
		t.Fatal("an unpersistable value was filed")
	}
	if err := s.Put(KindPlanReport, k, []byte("unknown")); err != nil {
		t.Fatal(err)
	}
	if _, ok := Lookup(s, stringCodec, k); ok {
		t.Fatal("Lookup served an unpersistable record")
	}
	calls := 0
	v, hit, err = Fill(s, stringCodec, key, func() (string, error) { calls++; return "decided", nil })
	if v != "decided" || hit || err != nil || calls != 1 {
		t.Fatalf("Fill over an unpersistable record = %q, %v, %v after %d computations", v, hit, err, calls)
	}
	if raw, ok := s.peek(KindPlanReport, k); !ok || string(raw) != "decided" {
		t.Fatalf("resident record = %q, %v; want it overwritten", raw, ok)
	}
	v, hit, err = Fill(s, stringCodec, key, func() (string, error) { t.Fatal("recomputed a filed record"); return "", nil })
	if v != "decided" || !hit || err != nil {
		t.Fatalf("warm Fill = %q, %v, %v", v, hit, err)
	}
}

func TestStatsCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	s := openT(t, path, hash.Fingerprint())
	defer s.Close()
	s.Get(KindCompliance, sumOf("miss"))
	s.Put(KindCompliance, sumOf("hit"), []byte("v"))
	s.Get(KindCompliance, sumOf("hit"))
	st := s.Stats()
	tc := st.PerKind[KindCompliance]
	if tc.Hits != 1 || tc.Misses != 1 || tc.Writebacks != 1 {
		t.Fatalf("compliance stats = %+v", tc)
	}
	if st.Hits() != 1 || st.Misses() != 1 || st.Writebacks() != 1 {
		t.Fatalf("totals = h%d m%d w%d", st.Hits(), st.Misses(), st.Writebacks())
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v", got)
	}
	// peek leaves counters alone.
	s.peek(KindCompliance, sumOf("hit"))
	if st := s.Stats(); st.Hits() != 1 {
		t.Fatal("peek counted as a hit")
	}
}
