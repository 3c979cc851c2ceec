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
// byte-identically to one computed fresh. The store side is
// store.Lookup, File and Fill over a codec per record type; the memory
// tier is written after the store, so a memory hit on a store-backed
// session implies the store holds the record. A budget cutoff describes
// one run's limits, not the cone's content, so an Unknown goes to
// neither tier.

// reportCodec is the store form of the reports of one kind (plan or
// network).
func reportCodec(kind store.Kind) store.Codec[*Report] {
	return store.Codec[*Report]{Kind: kind, Encode: EncodeReport, Decode: DecodeReport,
		Persistable: func(r *Report) bool { return r.Verdict != Unknown }}
}

var flowCodec = store.Codec[*PlanFlow]{Kind: store.KindAudit, Encode: EncodeFlow, Decode: DecodeFlow,
	Persistable: func(f *PlanFlow) bool { return f.Verdict != Unknown.String() }}

// remember files a record in the cache's memory tier, unless the codec
// refuses to persist it.
func remember[T any](c store.Codec[T], cache *memo.Cache, sum hash.Sum, v T) {
	if c.Persistable(v) {
		cache.PutReport(c.Kind, sum, v)
	}
}

// read returns the record filed under (c.Kind, sum) in the memory tier,
// else store.Fill's over the cache's store: the filed record or
// compute's, then remembered. hit reports a read from either tier. A
// compute or store-write error comes back with the zero record.
func read[T any](c store.Codec[T], cache *memo.Cache, sum hash.Sum,
	compute func() (T, error)) (v T, hit bool, err error) {

	if m, ok := cache.Report(c.Kind, sum); ok {
		return m.(T), true, nil
	}
	v, hit, err = store.Fill(cache.Disk(), c, func() hash.Sum { return sum }, compute)
	if err != nil {
		var zero T
		return zero, false, err
	}
	remember(c, cache, sum, v)
	return v, hit, nil
}

// LookupReport returns the report filed under (kind, sum) in the report
// tiers: the memory tier, else the store, promoting a store hit into
// memory. The report is shared: callers must not mutate it.
func LookupReport(cache *memo.Cache, kind store.Kind, sum hash.Sum) (*Report, bool) {
	if r, ok := cache.Report(kind, sum); ok {
		return r.(*Report), true
	}
	c := reportCodec(kind)
	r, ok := store.Lookup(cache.Disk(), c, sum)
	if ok {
		remember(c, cache, sum, r)
	}
	return r, ok
}

// FileReport writes a freshly computed report under (kind, sum) to the
// store, then to memory. An Unknown report — a budget cutoff, a
// cancellation — goes to neither.
func FileReport(cache *memo.Cache, kind store.Kind, sum hash.Sum, r *Report) error {
	c := reportCodec(kind)
	if err := store.File(cache.Disk(), c, sum, r); err != nil {
		return err
	}
	remember(c, cache, sum, r)
	return nil
}

// ReadFlow is the flow audit's read-through: the flow filed under
// (store.KindAudit, sum) — sum the cone key of the flow's plan, the key
// its verdict is filed under — from memory, then the store, else
// compute's flow, filed in both unless Unknown. hit reports a read from
// either tier. The flow is shared: callers must not mutate it.
//
// ReadFlow stays a call: inlined into a caller's package, its call to the
// generic read would make every caller's compute closure escape to the
// heap, memory hits included.
//
//go:noinline
func ReadFlow(cache *memo.Cache, sum hash.Sum,
	compute func() (*PlanFlow, error)) (flow *PlanFlow, hit bool, err error) {

	return read(flowCodec, cache, sum, compute)
}

// cachedReport is the read-through of this package's checks: a report
// filed under the cone key, else the computation, filed. A private cache
// (opts.Cache nil) skips the tiers, and the key.
func cachedReport(cache *memo.Cache, opts Options, kind store.Kind,
	key func() hash.Sum, compute func() (*Report, error)) (*Report, error) {

	if opts.Cache == nil {
		return compute()
	}
	r, _, err := read(reportCodec(kind), cache, key(), compute)
	return r, err
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
