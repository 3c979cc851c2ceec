// Package memo is a stub of the engine's memoisation layer: its memory
// tier of whole-report verdicts is a verdict store too, so the
// nounknownpersist analyzer matches its write site (internal/memo.Cache
// PutReport) by import-path suffix against this miniature.
package memo

import "fixture/internal/store"

// Cache is the stub session cache.
type Cache struct {
	reports map[store.Sum]any
}

// PutReport files a report in the memory tier.
func (c *Cache) PutReport(k store.Kind, sum store.Sum, v any) {
	if c.reports == nil {
		c.reports = map[store.Sum]any{}
	}
	c.reports[sum] = v
}
