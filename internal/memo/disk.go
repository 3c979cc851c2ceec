package memo

import (
	"fmt"

	"susc/internal/hash"
	"susc/internal/hexpr"
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

// encodeVerdict serialises a compliance verdict: ok byte + witness text.
func encodeVerdict(v verdict) []byte {
	out := make([]byte, 1+len(v.witness))
	if v.ok {
		out[0] = 1
	}
	copy(out[1:], v.witness)
	return out
}

func decodeVerdict(b []byte) (verdict, error) {
	if len(b) < 1 || b[0] > 1 {
		return verdict{}, fmt.Errorf("memo: malformed compliance record")
	}
	return verdict{ok: b[0] == 1, witness: string(b[1:])}, nil
}

// complianceDisk is the disk tier of Compliance: probe, compute under
// singleflight on a miss, write back. The content key is the digest of
// both canonical expression forms — the entire dependency cone of a
// compliance verdict.
func (c *Cache) complianceDisk(k uint64, client, server hexpr.Expr) (verdict, error) {
	sum := hash.Pair(client, server)
	if raw, ok := c.disk.Get(store.KindCompliance, sum); ok {
		v, err := decodeVerdict(raw)
		if err == nil {
			c.verdicts.put(k, v, 16+uint64(len(v.witness)))
			return v, nil
		}
		// Malformed resident record (should be unreachable past the CRC):
		// fall through and recompute.
	}
	got, err := c.disk.Once(store.KindCompliance, sum, func() (any, error) {
		// A concurrent winner may have written the record while we waited.
		if raw, ok := c.disk.Peek(store.KindCompliance, sum); ok {
			if v, err := decodeVerdict(raw); err == nil {
				return v, nil
			}
		}
		v := c.computeCompliance(client, server)
		if v.err == nil {
			if perr := c.disk.Put(store.KindCompliance, sum, encodeVerdict(v)); perr != nil {
				return v, perr
			}
		}
		return v, nil
	})
	if err != nil {
		return verdict{}, err
	}
	v := got.(verdict)
	c.verdicts.put(k, v, 16+uint64(len(v.witness)))
	return v, nil
}
