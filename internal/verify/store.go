package verify

import (
	"encoding/json"
	"fmt"

	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/store"
)

// This file is the persistence boundary of plan validation: one
// read-through over the report tiers — the session's memory, then the
// disk store, then the computation — addressed by (record kind, cone key)
// (key.go), and a faithful Report round-trip through the existing JSON
// wire form, so a report decoded from the store renders — as text and as
// JSON — byte-identically to one computed fresh.

// LookupReport returns the report filed under (kind, sum): from the
// cache's memory tier, else from its disk tier, promoting a disk hit
// into memory. The report is shared: callers must not mutate it.
func LookupReport(cache *memo.Cache, kind store.Kind, sum hash.Sum) (*Report, bool) {
	if v, ok := cache.Report(kind, sum); ok {
		return v.(*Report), true
	}
	disk := cache.Disk()
	if disk == nil {
		return nil, false
	}
	raw, ok := disk.Get(kind, sum)
	if !ok {
		return nil, false
	}
	r, err := DecodeReport(raw)
	if err != nil || r.Verdict == Unknown {
		return nil, false
	}
	cache.PutReport(kind, sum, r)
	return r, true
}

// FileReport writes a freshly computed report under (kind, sum) to both
// tiers. An Unknown report — a budget cutoff, a cancellation — goes to
// neither: it describes this run's limits, not the cone's content.
func FileReport(cache *memo.Cache, kind store.Kind, sum hash.Sum, r *Report) error {
	if r.Verdict == Unknown {
		return nil
	}
	cache.PutReport(kind, sum, r)
	disk := cache.Disk()
	if disk == nil {
		return nil
	}
	enc, err := EncodeReport(r)
	if err != nil {
		return err
	}
	return disk.Put(kind, sum, enc)
}

// FillReport computes the report of a cone LookupReport missed and files
// it (FileReport). With a disk tier, the computation runs under the
// store's singleflight, so concurrent callers explore a cone once.
func FillReport(cache *memo.Cache, kind store.Kind, sum hash.Sum,
	compute func() (*Report, error)) (*Report, error) {

	fill := func() (any, error) {
		r, err := compute()
		if err != nil {
			return nil, err
		}
		return r, FileReport(cache, kind, sum, r)
	}
	var got any
	var err error
	if disk := cache.Disk(); disk != nil {
		got, err = disk.Once(kind, sum, func() (any, error) {
			// A concurrent caller may have filed the cone while this one
			// queued behind the flight.
			if raw, ok := disk.Peek(kind, sum); ok {
				if r, err := DecodeReport(raw); err == nil {
					return r, nil
				}
			}
			return fill()
		})
	} else {
		got, err = fill()
	}
	if err != nil {
		return nil, err
	}
	return got.(*Report), nil
}

// cachedReport is the read-through of this package's checks: a report
// filed under the cone key, else the computation, filed. A private cache
// (opts.Cache nil) or opts.NoReportTier skips the tiers, and the key.
func cachedReport(cache *memo.Cache, opts Options, kind store.Kind,
	key func() (hash.Sum, error), compute func() (*Report, error)) (*Report, error) {

	if opts.Cache == nil || opts.NoReportTier {
		return compute()
	}
	sum, err := key()
	if err != nil {
		return nil, err
	}
	if r, ok := LookupReport(cache, kind, sum); ok {
		return r, nil
	}
	return FillReport(cache, kind, sum, compute)
}

// ParseVerdict is the inverse of Verdict.String.
func ParseVerdict(s string) (Verdict, error) {
	for v := Valid; v <= Unknown; v++ {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("verify: unknown verdict %q", s)
}

// EncodeReport serialises a report for the persistent store using the
// same wire form as the CLI's -json output.
func EncodeReport(r *Report) ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// DecodeReport is the inverse of EncodeReport. The decoded report carries
// its trace as label strings (TraceLabels) rather than live TraceEntry
// values; String and MarshalJSON render both identically, so a persisted
// verdict is indistinguishable from a recomputed one in every output.
func DecodeReport(b []byte) (*Report, error) {
	var w reportJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, err
	}
	v, err := ParseVerdict(w.Verdict)
	if err != nil {
		return nil, err
	}
	return &Report{
		Verdict:     v,
		Policy:      hexpr.PolicyID(w.Policy),
		Request:     hexpr.RequestID(w.Request),
		Witness:     w.Witness,
		TraceLabels: w.Trace,
		StuckTree:   w.StuckTree,
		States:      w.States,
		Reason:      w.Reason,
		Frontier:    w.Frontier,
	}, nil
}
