package memo

import (
	"path/filepath"
	"testing"

	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/store"
)

func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	s, err := store.Open(path, hash.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestComplianceDiskRoundTrip: verdicts and witnesses filed by one cache
// read back unchanged through a fresh cache over the reopened store,
// which builds no product to answer them.
func TestComplianceDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.store")
	type answer struct {
		ok      bool
		witness string
	}
	pairs := contractPairs(t, 40)
	want := make([]answer, len(pairs))
	s := openStore(t, path)
	c := New()
	c.AttachDisk(s)
	witnesses := 0
	for i, pr := range pairs {
		ok, w, err := c.Compliance(pr[0], pr[1])
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		want[i] = answer{ok, w}
		if w != "" {
			witnesses++
		}
	}
	if witnesses == 0 {
		t.Fatal("no pair is non-compliant: the witness round trip is untested")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, path)
	defer s.Close()
	fresh := New()
	fresh.AttachDisk(s)
	for i, pr := range pairs {
		ok, w, err := fresh.Compliance(pr[0], pr[1])
		if err != nil || (answer{ok, w}) != want[i] {
			t.Fatalf("pair %d read back (%v, %q, %v), filed (%v, %q)", i, ok, w, err, want[i].ok, want[i].witness)
		}
	}
	if st := fresh.Stats(); st.ProductMisses != 0 || st.ProductEntries != 0 {
		t.Fatalf("the warm cache built products: %+v", st)
	}
	if st := s.Stats().PerKind[store.KindCompliance]; st.Misses != 0 || st.Writebacks != 0 {
		t.Fatalf("compliance store stats = %+v, want every read a hit", st)
	}
}

// TestComplianceErrorNeverFiled: the compliance error of an open contract
// is returned, from the memory tier on a repeat, and never reaches the
// store.
func TestComplianceErrorNeverFiled(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "s.store"))
	defer s.Close()
	c := New()
	c.AttachDisk(s)
	open := hexpr.RecvThen("a", hexpr.V("h"))
	server := hexpr.SendThen("a", hexpr.Eps())
	for round := 0; round < 2; round++ {
		if _, _, err := c.Compliance(open, server); err == nil {
			t.Fatalf("round %d: an open contract decided compliance", round)
		}
	}
	if st := s.Stats().PerKind[store.KindCompliance]; st.Writebacks != 0 || st.Entries != 0 {
		t.Fatalf("compliance store stats = %+v, want nothing filed", st)
	}
	if _, ok := store.Lookup(s, verdictCodec, hash.Pair(open, server)); ok {
		t.Fatal("the error verdict was filed")
	}
}

// TestComplianceMalformedRecordRecomputed: a resident record that does
// not decode is a miss: the verdict is recomputed and overwrites it.
func TestComplianceMalformedRecordRecomputed(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "s.store"))
	defer s.Close()
	for i, pr := range contractPairs(t, 0) {
		wantOK, wantW, err := New().Compliance(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		sum := hash.Pair(pr[0], pr[1])
		if err := s.Put(store.KindCompliance, sum, []byte{7}); err != nil {
			t.Fatal(err)
		}
		c := New()
		c.AttachDisk(s)
		ok, w, err := c.Compliance(pr[0], pr[1])
		if err != nil || ok != wantOK || w != wantW {
			t.Fatalf("pair %d over a malformed record = (%v, %q, %v), want (%v, %q)", i, ok, w, err, wantOK, wantW)
		}
		v, filed := store.Lookup(s, verdictCodec, sum)
		if !filed || v.ok != wantOK || v.witness != wantW {
			t.Fatalf("pair %d: resident record %+v, %v; want the recomputed verdict", i, v, filed)
		}
	}
}
