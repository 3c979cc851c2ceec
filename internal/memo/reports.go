package memo

import (
	"sync"
	"sync/atomic"

	"susc/internal/hash"
	"susc/internal/store"
)

// reportKey addresses a whole-report verdict the way the disk tier does:
// the record kind and the content hash of the verdict's dependency cone.
type reportKey struct {
	kind store.Kind
	sum  hash.Sum
}

// reportTier is the memory tier of whole-report verdicts (plan and
// network reports): the session-lifetime front of the disk tier. Its
// values are opaque here (internal/verify owns the report type and the
// read-through over both tiers) and immutable once filed.
type reportTier struct {
	mu                    sync.RWMutex
	m                     map[reportKey]any
	hits, misses, entries atomic.Uint64
}

// Report returns the report filed under (kind, sum) in the memory tier.
// The value is shared: callers must not mutate it.
func (c *Cache) Report(kind store.Kind, sum hash.Sum) (any, bool) {
	t := &c.reports
	t.mu.RLock()
	v, ok := t.m[reportKey{kind, sum}]
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return v, ok
}

// PutReport files a report in the memory tier under (kind, sum). Only
// decided reports belong here: an Unknown describes one run's budget,
// not the cone's content, and a later run with room must recompute it.
func (c *Cache) PutReport(kind store.Kind, sum hash.Sum, v any) {
	t := &c.reports
	k := reportKey{kind, sum}
	t.mu.Lock()
	if t.m == nil {
		t.m = map[reportKey]any{}
	}
	if _, dup := t.m[k]; !dup {
		t.entries.Add(1)
	}
	t.m[k] = v
	t.mu.Unlock()
}
