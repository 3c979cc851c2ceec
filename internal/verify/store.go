package verify

import (
	"encoding/json"
	"fmt"

	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/memo"
	"susc/internal/store"
)

// This file is the persistence boundary of plan validation and of the
// flow audit: one read-through over the report tiers — the session's
// memory, then the disk store, then the computation — addressed by
// (record kind, cone key) (key.go), for reports and for flows alike, and
// a faithful Report round-trip through the existing JSON wire form, so a
// report decoded from the store renders — as text and as JSON —
// byte-identically to one computed fresh.

// codec is the store form of one record type of the report tiers, and
// which of its values are persistable: a budget cutoff describes one
// run's limits, not the cone's content, so an Unknown goes to neither
// tier.
type codec[T any] struct {
	encode      func(T) ([]byte, error)
	decode      func([]byte) (T, error)
	persistable func(T) bool
}

var (
	reportCodec = codec[*Report]{EncodeReport, DecodeReport,
		func(r *Report) bool { return r.Verdict != Unknown }}
	flowCodec = codec[*PlanFlow]{EncodeFlow, DecodeFlow,
		func(f *PlanFlow) bool { return f.Verdict != Unknown.String() }}
)

// lookup returns the record filed under (kind, sum): from the cache's
// memory tier, else from its disk tier, promoting a disk hit into
// memory. The record is shared: callers must not mutate it.
func lookup[T any](c codec[T], cache *memo.Cache, kind store.Kind, sum hash.Sum) (T, bool) {
	var zero T
	if v, ok := cache.Report(kind, sum); ok {
		return v.(T), true
	}
	disk := cache.Disk()
	if disk == nil {
		return zero, false
	}
	raw, ok := disk.Get(kind, sum)
	if !ok {
		return zero, false
	}
	v, err := c.decode(raw)
	if err != nil || !c.persistable(v) {
		return zero, false
	}
	cache.PutReport(kind, sum, v)
	return v, true
}

// file writes a freshly computed record under (kind, sum) to the store,
// then to memory, so a memory hit on a store-backed session implies the
// store holds the record. An Unknown goes to neither tier.
func file[T any](c codec[T], cache *memo.Cache, kind store.Kind, sum hash.Sum, v T) error {
	if !c.persistable(v) {
		return nil
	}
	if disk := cache.Disk(); disk != nil {
		enc, err := c.encode(v)
		if err != nil {
			return err
		}
		if err := disk.Put(kind, sum, enc); err != nil {
			return err
		}
	}
	cache.PutReport(kind, sum, v)
	return nil
}

// fill computes the record of a cone lookup missed and files it. With a
// disk tier, the computation runs under the store's singleflight, so
// concurrent callers compute a cone once.
func fill[T any](c codec[T], cache *memo.Cache, kind store.Kind, sum hash.Sum,
	compute func() (T, error)) (T, error) {

	var zero T
	run := func() (any, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return v, file(c, cache, kind, sum, v)
	}
	var got any
	var err error
	if disk := cache.Disk(); disk != nil {
		got, err = disk.Once(kind, sum, func() (any, error) {
			// A concurrent caller may have filed the cone while this one
			// queued behind the flight.
			if raw, ok := disk.Peek(kind, sum); ok {
				if v, err := c.decode(raw); err == nil {
					return v, nil
				}
			}
			return run()
		})
	} else {
		got, err = run()
	}
	if err != nil {
		return zero, err
	}
	return got.(T), nil
}

// LookupReport returns the report filed under (kind, sum) in the report
// tiers (lookup). The report is shared: callers must not mutate it.
func LookupReport(cache *memo.Cache, kind store.Kind, sum hash.Sum) (*Report, bool) {
	return lookup(reportCodec, cache, kind, sum)
}

// FileReport writes a freshly computed report under (kind, sum) to both
// tiers (file). An Unknown report — a budget cutoff, a cancellation —
// goes to neither.
func FileReport(cache *memo.Cache, kind store.Kind, sum hash.Sum, r *Report) error {
	return file(reportCodec, cache, kind, sum, r)
}

// ReadFlow is the flow audit's read-through: the flow filed under
// (store.KindAudit, sum) — sum the cone key of the flow's plan, the key
// its verdict is filed under — from memory, then the store, else
// compute's flow, filed in both unless Unknown. hit reports a read from
// either tier. The flow is shared: callers must not mutate it.
func ReadFlow(cache *memo.Cache, sum hash.Sum,
	compute func() (*PlanFlow, error)) (flow *PlanFlow, hit bool, err error) {

	if f, ok := lookup(flowCodec, cache, store.KindAudit, sum); ok {
		return f, true, nil
	}
	flow, err = fill(flowCodec, cache, store.KindAudit, sum, compute)
	return flow, false, err
}

// cachedReport is the read-through of this package's checks: a report
// filed under the cone key, else the computation, filed. A private cache
// (opts.Cache nil) skips the tiers, and the key.
func cachedReport(cache *memo.Cache, opts Options, kind store.Kind,
	key func() hash.Sum, compute func() (*Report, error)) (*Report, error) {

	if opts.Cache == nil {
		return compute()
	}
	sum := key()
	if r, ok := LookupReport(cache, kind, sum); ok {
		return r, nil
	}
	return fill(reportCodec, cache, kind, sum, compute)
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
