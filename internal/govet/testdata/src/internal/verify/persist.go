// Package verify holds the nounknownpersist (SVET002) fixtures: store
// writes with and without the guards the analyzer recognises.
package verify

import (
	"fixture/internal/memo"
	"fixture/internal/store"
)

// Verdict mirrors the engine's three-valued outcome.
type Verdict int

// The verdicts; Unknown is the one that must never be persisted.
const (
	Valid Verdict = iota
	Violation
	Unknown
)

type result struct {
	verdict Verdict
	err     error
}

// PersistUnguarded writes whatever it was handed: the canonical finding.
func PersistUnguarded(s *store.Store, sum store.Sum, raw []byte) {
	s.Put(store.KindCompliance, sum, raw) // want `store write is reachable without an Unknown/exhausted guard`
}

// PersistGuarded discriminates on Unknown around the write: clean.
func PersistGuarded(s *store.Store, sum store.Sum, r result, raw []byte) {
	if r.verdict != Unknown {
		s.Put(store.KindCompliance, sum, raw)
	}
}

// PersistEarlyReturn uses the early-return idiom: clean.
func PersistEarlyReturn(s *store.Store, sum store.Sum, r result, raw []byte) {
	if r.verdict == Unknown {
		return
	}
	s.Put(store.KindCompliance, sum, raw)
}

// PersistErrNil gates on a nil error: clean.
func PersistErrNil(s *store.Store, sum store.Sum, r result, raw []byte) {
	if r.err == nil {
		s.Put(store.KindCompliance, sum, raw)
	}
}

// persistable is the predicate-function guard shape.
func persistable(r result) bool { return r.verdict != Unknown && r.err == nil }

// PersistPredicate gates on the predicate: clean.
func PersistPredicate(s *store.Store, sum store.Sum, r result, raw []byte) {
	if persistable(r) {
		s.Put(store.KindCompliance, sum, raw)
	}
}

// PersistNonGuardIf sits inside an if, but one that discriminates on
// nothing verdict-shaped — still a finding.
func PersistNonGuardIf(s *store.Store, sum store.Sum, raw []byte) {
	if len(raw) > 0 {
		s.Put(store.KindCompliance, sum, raw) // want `store write is reachable without an Unknown/exhausted guard`
	}
}

// FileInMemoryUnguarded files whatever it was handed in the memory tier,
// which a server keeps for its whole life: a finding like a store write.
func FileInMemoryUnguarded(c *memo.Cache, sum store.Sum, r result) {
	c.PutReport(store.KindCompliance, sum, r) // want `store write is reachable without an Unknown/exhausted guard`
}

// FileInMemoryGuarded leaves Unknown out of the memory tier: clean.
func FileInMemoryGuarded(c *memo.Cache, sum store.Sum, r result) {
	if r.verdict == Unknown {
		return
	}
	c.PutReport(store.KindCompliance, sum, r)
}
