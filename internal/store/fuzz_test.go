package store

import (
	"os"
	"path/filepath"
	"testing"

	"susc/internal/hash"
)

// FuzzStoreOpen writes arbitrary bytes as a store file. Open either
// refuses them with an error, or heals or resets them into a store that
// takes a Put and reopens with the same entries; it never panics.
func FuzzStoreOpen(f *testing.F) {
	fp := hash.Fingerprint()
	path := filepath.Join(f.TempDir(), "susc.store")
	s, err := Open(path, fp)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(KindCompliance, sumOf("a"), []byte("verdict-a")); err != nil {
		f.Fatal(err)
	}
	if err := s.Put(KindPlanReport, sumOf("b"), []byte("report-b")); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{0, 3, headerSize - 1, headerSize, headerSize + 1, headerSize + 40, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add([]byte("not a susc store"))
	f.Add(append([]byte(magic+"\x00"), make([]byte, hash.Size)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "susc.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, fp)
		if err != nil {
			return // refused, e.g. not a store file
		}
		if err := s.Put(KindLint, sumOf("fuzz"), []byte("put")); err != nil {
			t.Fatalf("Put on an opened store: %v", err)
		}
		want := s.Stats().Entries()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s2, err := Open(path, fp)
		if err != nil {
			t.Fatalf("reopening a store Open accepted: %v", err)
		}
		defer s2.Close()
		st := s2.Stats()
		if got := st.Entries(); got != want || st.HealedBytes != 0 || st.Reset {
			t.Fatalf("reopened with %d entries (healed %d, reset %v), want %d", got, st.HealedBytes, st.Reset, want)
		}
		if v, ok := s2.Get(KindLint, sumOf("fuzz")); !ok || string(v) != "put" {
			t.Fatalf("reopened store reads the Put as %q, %v", v, ok)
		}
	})
}
