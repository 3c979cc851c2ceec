package memo

import (
	"fmt"

	"susc/internal/store"
)

// AttachDisk adds a persistent second tier under the cache: a memory miss
// probes the store before computing, and freshly computed verdicts are
// written back. Compliance errors are never persisted (they are
// environmental, not content-determined), matching the rule that
// budget-aborted Unknown verdicts never reach disk either.
//
// Attach before sharing the cache across goroutines; the store itself is
// concurrency-safe.
func (c *Cache) AttachDisk(s *store.Store) { c.disk = s }

// Disk returns the attached persistent tier, or nil.
func (c *Cache) Disk() *store.Store { return c.disk }

// verdictCodec is the store form of a compliance verdict: an ok byte,
// then the witness text. A verdict carrying an error is not persistable.
var verdictCodec = store.Codec[verdict]{
	Kind: store.KindCompliance,
	Encode: func(v verdict) ([]byte, error) {
		out := make([]byte, 1+len(v.witness))
		if v.ok {
			out[0] = 1
		}
		copy(out[1:], v.witness)
		return out, nil
	},
	Decode: func(b []byte) (verdict, error) {
		if len(b) < 1 || b[0] > 1 {
			return verdict{}, fmt.Errorf("memo: malformed compliance record")
		}
		return verdict{ok: b[0] == 1, witness: string(b[1:])}, nil
	},
	Persistable: func(v verdict) bool { return v.err == nil },
}
