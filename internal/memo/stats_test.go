package memo

import (
	"sync"
	"testing"

	"susc/internal/hash"
	"susc/internal/store"

	"susc/internal/hexpr"
	"susc/internal/paperex"
)

// TestStatsEntriesAndBytes: the cache-pressure counters track resident
// entries per table (new keys only — hits and racing duplicates don't
// inflate them) and a non-zero byte estimate once anything is cached.
func TestStatsEntriesAndBytes(t *testing.T) {
	c := New()
	if st := c.Stats(); st.Entries() != 0 || st.ApproxBytes != 0 {
		t.Fatalf("fresh cache reports %d entries, %d bytes", st.Entries(), st.ApproxBytes)
	}

	exprs := []hexpr.Expr{paperex.S1(), paperex.S2(), paperex.S3()}
	for _, e := range exprs {
		c.Steps(e)
	}
	st := c.Stats()
	if st.StepsEntries == 0 {
		t.Fatal("Steps population must register entries")
	}
	if st.Entries() < st.StepsEntries {
		t.Fatalf("total %d < steps %d", st.Entries(), st.StepsEntries)
	}
	if st.ApproxBytes == 0 {
		t.Fatal("a populated cache must estimate non-zero bytes")
	}

	// Pure hits: recomputing the same keys adds no entries.
	for _, e := range exprs {
		c.Steps(e)
	}
	st2 := c.Stats()
	if st2.StepsEntries != st.StepsEntries || st2.ApproxBytes != st.ApproxBytes {
		t.Fatalf("hits inflated the counters: %+v vs %+v", st2, st)
	}
	if st2.Hits() == st.Hits() {
		t.Fatal("the second pass must hit")
	}

	// Other tables feed the same aggregate.
	if _, err := c.LTS(paperex.S1()); err != nil {
		t.Fatal(err)
	}
	st3 := c.Stats()
	if st3.LTSEntries == 0 {
		t.Fatal("LTS population must register entries")
	}
	if st3.ApproxBytes <= st2.ApproxBytes {
		t.Fatal("caching an LTS must grow the byte estimate")
	}
}

// TestReportTierConcurrent: goroutines filing and reading the report tier
// at once see every filed report under its own (kind, key) — the kind is
// part of the address — and count each key's entry once; under -race
// this is the data-race check for the tier's shards. Its traffic stays
// out of the per-pair counters.
func TestReportTierConcurrent(t *testing.T) {
	c := New()
	const nGo, nKeys = 8, 64
	key := func(i int) hash.Sum { return hash.File([]byte{byte(i)}) }
	var wg sync.WaitGroup
	for g := 0; g < nGo; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < nKeys; k++ {
				i := (k*5 + g*11) % nKeys
				for _, kind := range []store.Kind{store.KindPlanReport, store.KindNetworkReport} {
					if v, ok := c.Report(kind, key(i)); ok && v != [2]int{int(kind), i} {
						t.Errorf("report %d/%d reads %v", kind, i, v)
					}
					c.PutReport(kind, key(i), [2]int{int(kind), i})
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.ReportEntries != 2*nKeys || st.ReportHits+st.ReportMisses != 2*nGo*nKeys {
		t.Fatalf("report tier counters %+v, want %d entries and %d lookups", st, 2*nKeys, 2*nGo*nKeys)
	}
	if st.Hits()+st.Misses()+st.Entries() != 0 {
		t.Fatalf("report traffic leaked into the per-pair counters: %+v", st)
	}
}
