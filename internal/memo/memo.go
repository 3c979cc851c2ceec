// Package memo is the shared memoisation layer of the static-analysis
// stack. One Cache holds every artifact that plan synthesis recomputes
// across candidate plans — compliance verdicts, product automata, one-step
// transition sets and projections — keyed by interned expression IDs
// (internal/intern), so the cost of assessing N plans over a repository
// grows with the number of *distinct* (request body, service) pairs and
// distinct expression residuals, not with N. Above those sits the memory
// tier of whole-report verdicts (reports.go), keyed by cone hash like the
// disk tier beneath it, which lets a repeated question skip the work
// altogether.
//
// A Cache is safe for concurrent use: each table is sharded and guarded by
// per-shard RWMutexes (the report tier, consulted once per verdict rather
// than once per step, by one RWMutex), and every cached artifact is
// immutable after construction (products, transition slices and compiled
// automata are never mutated by their consumers). Racing goroutines may
// build the same artifact twice on a cold key; both results are
// structurally identical and one wins, so callers observe deterministic
// values regardless of scheduling.
package memo

import (
	"sync"
	"sync/atomic"

	"susc/internal/autom"
	"susc/internal/compliance"
	"susc/internal/contract"
	"susc/internal/hexpr"
	"susc/internal/intern"
	"susc/internal/lts"
	"susc/internal/store"
)

const shardCount = 16 // power of two

// Stats counts cache traffic. Counters are cumulative over the cache's
// lifetime; Stats values are snapshots.
type Stats struct {
	ComplianceHits, ComplianceMisses uint64
	ProductHits, ProductMisses       uint64
	StepsHits, StepsMisses           uint64
	// LTSHits, LTSMisses and LTSEntries are always zero: the cache holds
	// no transition systems. The fields stay for readers of the snapshot.
	LTSHits, LTSMisses           uint64
	ProjectHits, ProjectMisses   uint64
	CompiledHits, CompiledMisses uint64

	// Entry counts per table: the number of distinct keys resident.
	ComplianceEntries, ProductEntries, StepsEntries, LTSEntries, ProjectEntries, CompiledEntries uint64
	// ApproxBytes estimates the resident size of all cached artifacts
	// (states, edges, witnesses, map overhead). It is a coarse,
	// cheaply-maintained gauge of cache pressure, not an accounting of
	// the Go heap.
	ApproxBytes uint64

	// ReportHits, ReportMisses and ReportEntries count the memory tier of
	// whole-report verdicts (Report, PutReport). They stay out of Hits,
	// Misses, Entries and ApproxBytes: those measure the per-pair work
	// beneath a verdict, which a report hit skips altogether.
	ReportHits, ReportMisses, ReportEntries uint64
}

// Entries returns the total number of cached entries across all tables.
func (s Stats) Entries() uint64 {
	return s.ComplianceEntries + s.ProductEntries + s.StepsEntries + s.ProjectEntries + s.CompiledEntries
}

// Hits returns the total hit count across all tables.
func (s Stats) Hits() uint64 {
	return s.ComplianceHits + s.ProductHits + s.StepsHits + s.ProjectHits + s.CompiledHits
}

// Misses returns the total miss count across all tables.
func (s Stats) Misses() uint64 {
	return s.ComplianceMisses + s.ProductMisses + s.StepsMisses + s.ProjectMisses + s.CompiledMisses
}

// HitRate returns the overall hit rate in [0,1] (0 when the cache is
// untouched).
func (s Stats) HitRate() float64 {
	h, m := s.Hits(), s.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
}

type table[V any] struct {
	shards  [shardCount]shard[V]
	hits    atomic.Uint64
	misses  atomic.Uint64
	entries atomic.Uint64
	bytes   atomic.Uint64
}

// entryOverhead approximates the per-entry bookkeeping of a map slot
// (key, hash metadata, value header).
const entryOverhead = 48

func (t *table[V]) get(k uint64) (V, bool) {
	s := &t.shards[k&(shardCount-1)]
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return v, ok
}

// put stores v under k; approxBytes is the caller's estimate of the
// artifact's resident size, counted once per distinct key (racing
// builders of the same key are counted as the single entry they become).
func (t *table[V]) put(k uint64, v V, approxBytes uint64) {
	s := &t.shards[k&(shardCount-1)]
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint64]V{}
	}
	if _, dup := s.m[k]; !dup {
		t.entries.Add(1)
		t.bytes.Add(approxBytes + entryOverhead)
	}
	s.m[k] = v
	s.mu.Unlock()
}

// verdict is a memoised compliance decision with its diagnostic witness.
type verdict struct {
	ok      bool
	witness string
	err     error
}

type productEntry struct {
	p   *compliance.Product
	err error
}

// Cache is the shared memoisation handle. Construct with New; the zero
// value is not usable.
type Cache struct {
	tab      *intern.Table
	verdicts table[verdict]
	products table[productEntry]
	steps    table[[]lts.Transition]
	projs    table[hexpr.Expr]
	compiled table[*autom.Compiled]
	reports  reportTier

	// disk is the optional persistent second tier (see AttachDisk):
	// memory miss → disk probe → compute → write-back.
	disk *store.Store
}

// New returns an empty cache with a fresh interning table.
func New() *Cache { return &Cache{tab: intern.NewTable()} }

// Interner exposes the cache's interning table, so callers (e.g. the
// verify visited set) key their own maps in the same ID space.
func (c *Cache) Interner() *intern.Table { return c.tab }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		ComplianceHits:   c.verdicts.hits.Load(),
		ComplianceMisses: c.verdicts.misses.Load(),
		ProductHits:      c.products.hits.Load(),
		ProductMisses:    c.products.misses.Load(),
		StepsHits:        c.steps.hits.Load(),
		StepsMisses:      c.steps.misses.Load(),
		ProjectHits:      c.projs.hits.Load(),
		ProjectMisses:    c.projs.misses.Load(),

		CompiledHits:   c.compiled.hits.Load(),
		CompiledMisses: c.compiled.misses.Load(),

		ComplianceEntries: c.verdicts.entries.Load(),
		ProductEntries:    c.products.entries.Load(),
		StepsEntries:      c.steps.entries.Load(),
		ProjectEntries:    c.projs.entries.Load(),
		CompiledEntries:   c.compiled.entries.Load(),
		ApproxBytes: c.verdicts.bytes.Load() + c.products.bytes.Load() +
			c.steps.bytes.Load() + c.projs.bytes.Load() +
			c.compiled.bytes.Load(),

		ReportHits:    c.reports.hits.Load(),
		ReportMisses:  c.reports.misses.Load(),
		ReportEntries: c.reports.entries.Load(),
	}
}

// productBytes estimates a product's size for the ApproxBytes gauge:
// per-state and per-edge constants cover the struct plus its share of
// slice headers.
func productBytes(p *compliance.Product) uint64 {
	if p == nil {
		return 0
	}
	n := uint64(len(p.States))*32 + uint64(len(p.Final))
	for _, es := range p.Edges {
		n += uint64(len(es)) * 24
	}
	return n
}

// Steps returns the one-step successors of e under the stand-alone
// operational semantics, memoised on the interned form of e. The returned
// slice is shared: callers must not mutate it.
func (c *Cache) Steps(e hexpr.Expr) []lts.Transition {
	k := uint64(uint32(c.tab.Expr(e)))
	if v, ok := c.steps.get(k); ok {
		return v
	}
	v := lts.Step(e)
	c.steps.put(k, v, uint64(len(v))*24)
	return v
}

// Project returns the communication projection H! of e, memoised on the
// interned form of e. Repeated products against the same service (or with
// the same request body) project it once.
func (c *Cache) Project(e hexpr.Expr) hexpr.Expr {
	k := uint64(uint32(c.tab.Expr(e)))
	if v, ok := c.projs.get(k); ok {
		return v
	}
	v := contract.Project(e)
	c.projs.put(k, v, uint64(hexpr.Size(v))*48)
	return v
}

// Product returns the product automaton of the pair, memoised on the
// interned (client, server) IDs. The product shares the cache's interner,
// projection memo and step memo, so building one product warms the
// others.
func (c *Cache) Product(client, server hexpr.Expr) (*compliance.Product, error) {
	k := intern.Pack(c.tab.Expr(client), c.tab.Expr(server))
	if v, ok := c.products.get(k); ok {
		return v.p, v.err
	}
	p, err := compliance.NewProductProjected(c.tab, c.Steps, c.Project(client), c.Project(server))
	c.products.put(k, productEntry{p: p, err: err}, productBytes(p))
	return p, err
}

// Compliance decides H_client ⊢ H_server, memoised per distinct pair. It
// returns the verdict together with the (deterministic) witness string of
// a shortest stuck run when non-compliant. With a disk tier attached, a
// memory miss probes the store (content-keyed on both canonical forms)
// before computing, and computed verdicts are written back.
func (c *Cache) Compliance(client, server hexpr.Expr) (ok bool, witness string, err error) {
	k := intern.Pack(c.tab.Expr(client), c.tab.Expr(server))
	if v, ok := c.verdicts.get(k); ok {
		return v.ok, v.witness, v.err
	}
	if c.disk != nil {
		v, derr := c.complianceDisk(k, client, server)
		if derr != nil {
			return false, "", derr
		}
		return v.ok, v.witness, v.err
	}
	v := c.computeCompliance(client, server)
	c.verdicts.put(k, v, 16+uint64(len(v.witness)))
	return v.ok, v.witness, v.err
}

// computeCompliance builds the product and extracts the verdict; the
// single compute path shared by the memory-only and disk-tier routes.
func (c *Cache) computeCompliance(client, server hexpr.Expr) verdict {
	v := verdict{}
	p, err := c.Product(client, server)
	if err != nil {
		v.err = err
	} else if w := p.FindWitness(); w != nil {
		v.witness = w.String()
	} else {
		v.ok = true
	}
	return v
}

// Compliant is Compliance without the witness, mirroring
// compliance.Compliant.
func (c *Cache) Compliant(client, server hexpr.Expr) (bool, error) {
	ok, _, err := c.Compliance(client, server)
	return ok, err
}

// CompiledDFA returns the compiled (dense-table) automaton registered
// under the signature, building it through the callback on a miss. The
// signature is interned, so repeated lookups hash an int, not the string.
// Lint's SUSC014 keys per-declaration policy automata here as
// (instance ID, event alphabet) signatures, so inclusion checks across
// declarations sharing an alphabet determinise each automaton once.
func (c *Cache) CompiledDFA(sig string, build func() *autom.Compiled) *autom.Compiled {
	k := uint64(uint32(c.tab.Key(sig)))
	if v, ok := c.compiled.get(k); ok {
		return v
	}
	v := build()
	c.compiled.put(k, v, uint64(len(v.Trans))*4+uint64(len(v.Accept))*8)
	return v
}
