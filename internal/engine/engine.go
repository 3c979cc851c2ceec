// Package engine hosts the verification session shared by every susc
// front end: one warm memo.Cache layered over an optional persistent
// store tier, the mode table (each verification mode's parameters and
// its one run function), and the JSON entry shapes both the CLI and the
// server emit. Keeping the run logic and the entry shapes in one place
// is what makes a served NDJSON record byte-identical to the same record
// from a single-shot CLI run — the front ends differ only in where the
// bytes go.
package engine

import (
	"os"
	"path/filepath"

	"susc/internal/hash"
	"susc/internal/memo"
	"susc/internal/store"
)

// Session owns the warm verification state one front end shares across
// runs: an in-memory memo cache and, when opened with a cache directory,
// a content-addressed disk tier attached beneath it. The CLI opens one
// session per invocation; the server keeps one alive for its whole
// lifetime, which is where the warm-cache hit rates come from.
//
// The memo cache and the store are both concurrency-safe, so one session
// may serve any number of concurrent runs.
type Session struct {
	Cache *memo.Cache
	Disk  *store.Store // nil when the session is memory-only
}

// Open creates a session. A non-empty dir persists verdicts in
// DIR/susc.store, keyed to the current engine fingerprint; the store's
// advisory lock makes a second process opening the same directory fail
// with a *store.LockedError naming the holder. An empty dir yields a
// memory-only session.
func Open(dir string) (*Session, error) {
	var disk *store.Store
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		disk, err = store.Open(filepath.Join(dir, "susc.store"), hash.Fingerprint())
		if err != nil {
			return nil, err
		}
	}
	c := memo.New()
	c.AttachDisk(disk)
	return &Session{Cache: c, Disk: disk}, nil
}

// Close syncs and releases the disk tier, if any. Safe on a nil session
// and idempotent only as far as store.Close is.
func (s *Session) Close() error {
	if s == nil || s.Disk == nil {
		return nil
	}
	return s.Disk.Close()
}
