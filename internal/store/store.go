// Package store is the persistent tier of the memoisation stack: a
// crash-safe, single-file, append-only record log that keeps verification
// artifacts — compliance verdicts, plan reports, network reports, lint
// findings, flow audits — across process restarts, keyed by the content
// hashes of internal/hash. It turns `susc` from a cold CLI into an
// incremental build step: an unchanged repository replays its verdicts
// from disk, and an edit recomputes only the declarations whose dependency
// cone includes the change.
//
// # Format
//
// A store file is a fixed header followed by records:
//
//	header: magic "SUSCSTR" (7) | format version (1) | engine fingerprint (32)
//	record: kind (1) | key (32) | value length (uvarint) | value | CRC-32 (4, LE)
//
// The CRC covers everything before it (kind, key, length, value). The
// whole index is rebuilt in memory on Open by replaying the log; a
// truncated or corrupt tail — a crash mid-append — is detected by the
// checksum or a short read and healed by truncating the file back to the
// last intact record. Opening a store whose version byte or engine
// fingerprint differs from the current build resets it wholesale: stale
// verdicts from an incompatible engine are never served.
//
// # Concurrency
//
// A Store is safe for concurrent use: reads take a shared lock over the
// in-memory index, appends serialise on a writer lock, and each record is
// written with a single Write call. The Once method provides singleflight
// deduplication so concurrent callers missing on the same key compute the
// artifact once.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"susc/internal/faultinject"
	"susc/internal/hash"
)

// Kind discriminates the record tables of the store.
type Kind uint8

const (
	// KindCompliance: a compliance verdict H₁ ⊢ H₂ with its witness.
	KindCompliance Kind = 1
	// KindPlanReport: a verify.Report for one (client, plan) cone.
	KindPlanReport Kind = 2
	// KindNetworkReport: a verify.Report for a whole client vector under
	// bounded availability.
	KindNetworkReport Kind = 3
	// KindLint: the diagnostic list of one lint run over one file.
	KindLint Kind = 4
	// KindLTSSummary once held the size summary of a built transition
	// system. Nothing writes it now; the byte stays reserved, since a
	// persisted kind byte is never reused.
	KindLTSSummary Kind = 5
	// KindAudit: the flow-audit record of one (client, plan) cone — the
	// per-plan active-framing coverage computed by internal/valid.
	KindAudit Kind = 6
)

// kinds lists every Kind for stats iteration, with stable display names.
var kinds = []struct {
	k    Kind
	name string
}{
	{KindCompliance, "compliance"},
	{KindPlanReport, "plan"},
	{KindNetworkReport, "network"},
	{KindLint, "lint"},
	{KindLTSSummary, "lts"},
	{KindAudit, "audit"},
}

// KindName returns the display name of a kind ("plan", "compliance", …).
func KindName(k Kind) string {
	for _, e := range kinds {
		if e.k == k {
			return e.name
		}
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Kinds returns every known kind in display order.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	for i, e := range kinds {
		out[i] = e.k
	}
	return out
}

const (
	magic = "SUSCSTR"
	// FormatVersion is the store format version byte. Bumping it resets
	// every existing store on open.
	FormatVersion = 1
	headerSize    = len(magic) + 1 + hash.Size
)

// TableStats counts one kind's traffic and residency.
type TableStats struct {
	Hits, Misses, Writebacks uint64
	Entries                  uint64
	Bytes                    uint64
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// PerKind indexes table stats by Kind.
	PerKind map[Kind]TableStats
	// OpenTime is how long Open took (header check plus full replay).
	OpenTime time.Duration
	// Replayed is the number of intact records replayed on Open.
	Replayed int
	// HealedBytes is the size of the corrupt or truncated tail Open cut
	// off (0 for a clean file).
	HealedBytes int64
	// Reset reports that Open discarded the previous contents wholesale
	// (version or engine-fingerprint mismatch).
	Reset bool
}

// Hits sums hits over all kinds.
func (s Stats) Hits() uint64 { return s.total(func(t TableStats) uint64 { return t.Hits }) }

// Misses sums misses over all kinds.
func (s Stats) Misses() uint64 { return s.total(func(t TableStats) uint64 { return t.Misses }) }

// Writebacks sums write-backs over all kinds.
func (s Stats) Writebacks() uint64 { return s.total(func(t TableStats) uint64 { return t.Writebacks }) }

// Entries sums resident entries over all kinds.
func (s Stats) Entries() uint64 { return s.total(func(t TableStats) uint64 { return t.Entries }) }

// Bytes sums resident value bytes over all kinds.
func (s Stats) Bytes() uint64 { return s.total(func(t TableStats) uint64 { return t.Bytes }) }

// HitRate returns hits/(hits+misses) in [0,1], 0 when untouched.
func (s Stats) HitRate() float64 {
	h, m := s.Hits(), s.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func (s Stats) total(f func(TableStats) uint64) uint64 {
	var n uint64
	for _, t := range s.PerKind {
		n += f(t)
	}
	return n
}

type ikey struct {
	kind Kind
	sum  hash.Sum
}

// Store is one open store file. Construct with Open; the zero value is
// not usable.
type Store struct {
	mu sync.RWMutex
	f  *os.File
	// unlock releases the advisory file lock Open acquired (nil once
	// Close has run).
	unlock func()
	index  map[ikey][]byte
	stats  map[Kind]*TableStats

	openTime    time.Duration
	replayed    int
	healedBytes int64
	reset       bool

	flight flightGroup
}

// Open opens (or creates) the store at path. The fingerprint identifies
// the engine producing the verdicts: a store written under a different
// fingerprint — or an older format version — is reset to empty, never
// served stale. A corrupt or truncated tail (a crash mid-append) is healed
// by truncating back to the last intact record.
//
// Open takes an advisory exclusive lock on the file for the life of the
// Store: a second Open of the same path — from another process, or from
// this one — fails with a typed *LockedError naming the holder instead
// of letting two writers interleave appends the in-process mutex cannot
// see.
func Open(path string, fingerprint hash.Sum) (*Store, error) {
	start := time.Now()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	unlock, err := lockFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{
		f:      f,
		unlock: unlock,
		index:  map[ikey][]byte{},
		stats:  map[Kind]*TableStats{},
	}
	for _, e := range kinds {
		s.stats[e.k] = &TableStats{}
	}
	if err := s.replay(fingerprint); err != nil {
		unlock()
		f.Close()
		return nil, err
	}
	s.openTime = time.Since(start)
	return s, nil
}

// replay validates the header and rebuilds the index from the log,
// healing any torn tail.
func (s *Store) replay(fingerprint hash.Sum) error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	header := make([]byte, headerSize)
	copy(header, magic)
	header[len(magic)] = FormatVersion
	copy(header[len(magic)+1:], fingerprint[:])

	if size == 0 {
		_, err := s.f.Write(header)
		return err
	}
	got := make([]byte, headerSize)
	n, err := io.ReadFull(s.f, got)
	if err != nil && err != io.ErrUnexpectedEOF {
		return err
	}
	if prefix := got[:min(n, len(magic))]; string(prefix) != magic[:len(prefix)] {
		// Not a store file at all: refuse rather than destroy foreign data.
		return fmt.Errorf("store: %s is not a susc store (bad magic)", s.f.Name())
	}
	if n < headerSize {
		// Magic matches but the header is torn: a crash before it landed.
		return s.resetFile(header)
	}
	if got[len(magic)] != FormatVersion || string(got[len(magic)+1:]) != string(fingerprint[:]) {
		// Format or engine changed: wholesale invalidation.
		return s.resetFile(header)
	}

	// Replay records. good tracks the end of the last intact record: the
	// bytes the record reader consumed, not the ones the buffer read
	// ahead.
	r := &countingReader{r: bufio.NewReaderSize(s.f, 64<<10), n: int64(headerSize)}
	good := int64(headerSize)
	br := &recordReader{r: r, size: size}
	for {
		rec, err := br.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: heal by truncating to the last intact
			// record. Everything after it is lost and will be recomputed.
			s.healedBytes = size - good
			if err := s.f.Truncate(good); err != nil {
				return err
			}
			break
		}
		k := ikey{kind: rec.kind, sum: rec.sum}
		st := s.stat(rec.kind)
		if old, dup := s.index[k]; dup {
			st.Bytes -= uint64(len(old))
			st.Entries--
		}
		s.index[k] = rec.value
		st.Entries++
		st.Bytes += uint64(len(rec.value))
		s.replayed++
		good = r.n
	}
	// Position the write cursor at the healed end.
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return err
	}
	return nil
}

func (s *Store) resetFile(header []byte) error {
	s.reset = true
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := s.f.Write(header)
	return err
}

func (s *Store) stat(k Kind) *TableStats {
	st, ok := s.stats[k]
	if !ok {
		st = &TableStats{}
		s.stats[k] = st
	}
	return st
}

// Get returns the value stored under (kind, sum). Traffic is counted in
// the stats. The returned slice is shared: callers must not mutate it.
func (s *Store) Get(kind Kind, sum hash.Sum) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.index[ikey{kind: kind, sum: sum}]
	s.mu.RUnlock()
	s.mu.Lock()
	if ok {
		s.stat(kind).Hits++
	} else {
		s.stat(kind).Misses++
	}
	s.mu.Unlock()
	return v, ok
}

// Peek is Get without touching the hit/miss counters, for callers probing
// again after a counted miss (the report tiers re-read a cone under its
// singleflight, in case a concurrent caller filed it meanwhile), which
// would otherwise count the miss twice.
func (s *Store) Peek(kind Kind, sum hash.Sum) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.index[ikey{kind: kind, sum: sum}]
	s.mu.RUnlock()
	return v, ok
}

// Put appends the record and indexes it. An identical resident value is
// skipped (no I/O); a different value for an existing key is appended and
// wins (last-writer-wins on replay too).
func (s *Store) Put(kind Kind, sum hash.Sum, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := ikey{kind: kind, sum: sum}
	if old, ok := s.index[k]; ok && string(old) == string(value) {
		s.stat(kind).Writebacks++
		return nil
	}
	if faultinject.Enabled() {
		// Fires before the append lands, so an injected panic models a
		// writer dying between deciding to persist and writing — the
		// record must be all-or-nothing on disk either way.
		faultinject.Fire(faultinject.StoreWrite, KindName(kind))
	}
	rec := appendRecord(nil, kind, sum, value)
	if _, err := s.f.Write(rec); err != nil {
		return err
	}
	st := s.stat(kind)
	if old, dup := s.index[k]; dup {
		st.Bytes -= uint64(len(old))
		st.Entries--
	}
	stored := append([]byte(nil), value...)
	s.index[k] = stored
	st.Entries++
	st.Bytes += uint64(len(stored))
	st.Writebacks++
	return nil
}

// Once runs compute under singleflight on (kind, sum): concurrent callers
// with the same key share one execution and its result. It does not read
// or write the store — pair it with Get/Put inside compute as needed.
func (s *Store) Once(kind Kind, sum hash.Sum, compute func() (any, error)) (any, error) {
	return s.flight.do(ikey{kind: kind, sum: sum}, compute)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Stats{
		PerKind:     map[Kind]TableStats{},
		OpenTime:    s.openTime,
		Replayed:    s.replayed,
		HealedBytes: s.healedBytes,
		Reset:       s.reset,
	}
	for k, st := range s.stats {
		out.PerKind[k] = *st
	}
	return out
}

// Sync flushes the file to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close syncs and closes the file, releasing the advisory lock. The
// Store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unlock != nil {
		// Release while the descriptor is still open (flock unlocks on a
		// live fd; closing would release it anyway, but the sidecar must
		// go first so a racing Open never reads a stale holder as live).
		defer func() { s.unlock = nil }()
		defer s.unlock()
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// --- record encoding ----------------------------------------------------

var crcTable = crc32.IEEETable

func appendRecord(dst []byte, kind Kind, sum hash.Sum, value []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(kind))
	dst = append(dst, sum[:]...)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(value)))
	dst = append(dst, lenBuf[:n]...)
	dst = append(dst, value...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

type record struct {
	kind  Kind
	sum   hash.Sum
	value []byte
}

// countingReader tracks the absolute file offset consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// recordReader decodes records sequentially, distinguishing a clean EOF
// (errEOF) from a torn tail (any other error).
type recordReader struct {
	r *countingReader
	// size is the file size: a value running past it marks the tail
	// corrupt before anything is allocated for it.
	size int64
}

// maxValueLen bounds a single record value; a length beyond it marks the
// tail corrupt rather than attempting a huge allocation.
const maxValueLen = 1 << 30

var errCorrupt = fmt.Errorf("store: corrupt record")

func (rr *recordReader) next() (record, error) {
	var rec record
	var head [1 + hash.Size]byte
	if _, err := io.ReadFull(rr.r, head[:1]); err != nil {
		if err == io.EOF {
			return rec, io.EOF
		}
		return rec, errCorrupt
	}
	if _, err := io.ReadFull(rr.r, head[1:]); err != nil {
		return rec, errCorrupt
	}
	rec.kind = Kind(head[0])
	copy(rec.sum[:], head[1:])
	// Decode the length varint byte by byte so we can keep feeding the CRC.
	var lenBytes []byte
	var vlen uint64
	var shift uint
	for {
		var b [1]byte
		if _, err := io.ReadFull(rr.r, b[:]); err != nil {
			return rec, errCorrupt
		}
		lenBytes = append(lenBytes, b[0])
		vlen |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			break
		}
		shift += 7
		if shift > 63 {
			return rec, errCorrupt
		}
	}
	if vlen > maxValueLen || vlen > uint64(rr.size-rr.r.n) {
		return rec, errCorrupt
	}
	rec.value = make([]byte, vlen)
	if _, err := io.ReadFull(rr.r, rec.value); err != nil {
		return rec, errCorrupt
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(rr.r, crcBuf[:]); err != nil {
		return rec, errCorrupt
	}
	crc := crc32.Checksum(head[:], crcTable)
	crc = crc32.Update(crc, crcTable, lenBytes)
	crc = crc32.Update(crc, crcTable, rec.value)
	if crc != binary.LittleEndian.Uint32(crcBuf[:]) {
		return rec, errCorrupt
	}
	return rec, nil
}

// --- singleflight -------------------------------------------------------

type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
	// joined counts the callers that found this call in flight and wait
	// on its result; guarded by flightGroup.mu.
	joined int
}

type flightGroup struct {
	mu sync.Mutex
	m  map[ikey]*flightCall
}

func (g *flightGroup) do(k ikey, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[ikey]*flightCall{}
	}
	if c, ok := g.m[k]; ok {
		c.joined++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[k] = c
	g.mu.Unlock()

	// A panic in fn must not strand the waiters queued on this flight:
	// release them with an error and drop the entry before the panic
	// continues into the leader's own recovery (a budget.Guard, which
	// turns it into a typed internal error).
	completed := false
	defer func() {
		if !completed {
			c.err = fmt.Errorf("store: in-flight %s compute panicked", KindName(k.kind))
		}
		c.wg.Done()
		g.mu.Lock()
		delete(g.m, k)
		g.mu.Unlock()
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, c.err
}
