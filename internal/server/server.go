// Package server is the long-running front end of the verification
// engine: `susc serve` boots one Server over a warm engine.Session and
// answers POSTed specification files with streamed NDJSON results.
//
// The protocol is deliberately plain. POST the spec source to
// /v1/<mode>, for each served mode of engine.Modes (lint, audit, plans,
// check, checkall), with the mode's parameters as the query string:
// they parse with the flag definitions of `susc <mode>`, so a malformed
// or unknown parameter is a 400. The run is the CLI's own run function,
// so record lines come back exactly as the CLI's -json mode prints them
// and a served verdict is byte-identical to a single-shot
// `susc <mode> -json` run against the same session state. Everything
// the CLI would print to stderr — progress, findings riding along with
// a checkall verdict — arrives as control lines, JSON objects whose
// first key is "susc" (filter them with `grep -v '^{"susc"'`). The
// final line of every response is {"susc":"done","exit":N} carrying the
// exit code the CLI would have returned.
//
// Robustness is the point of the design:
//
//   - Admission control: at most MaxInFlight requests verify at once; the
//     rest are shed immediately with 429 and a Retry-After header instead
//     of queueing into memory exhaustion.
//   - Budget isolation: every request gets its own budget.Budget, its
//     requested limits clamped by the server-wide caps, so one expensive
//     spec degrades to an Unknown verdict instead of starving the rest.
//   - Panic isolation: each request runs under budget.Guard; a poisoned
//     spec yields a typed internal-error control line (exit 2) and the
//     serving goroutine survives.
//   - Graceful drain: Shutdown stops admitting, waits up to the grace for
//     in-flight requests, then cancels their budgets so they flush
//     partial Unknown results and the connections still close cleanly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"susc/internal/budget"
	"susc/internal/engine"
	"susc/internal/faultinject"
	"susc/internal/memo"
	"susc/internal/store"
)

// Config tunes one Server. The zero value serves with the defaults
// below and no persistence.
type Config struct {
	// CacheDir persists verdicts in CacheDir/susc.store ("" = memory
	// only). The store's advisory lock makes a second server on the same
	// directory fail at New with a *store.LockedError.
	CacheDir string
	// MaxInFlight bounds concurrently verifying requests (default 4).
	MaxInFlight int
	// MaxTimeout, MaxStates and MaxEdges clamp the per-request budget
	// caps. Zero leaves the dimension unlimited, and requests may then
	// choose any bound; a non-zero server cap also becomes the default
	// for requests that specify none. A negative one fails New.
	MaxTimeout time.Duration
	MaxStates  int64
	MaxEdges   int64
	// MaxBody bounds a request body in bytes (default 4 MiB).
	MaxBody int64
	// WebhookSecret enables HMAC-signed result callbacks; without it,
	// requests carrying a webhook parameter are rejected.
	WebhookSecret []byte
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 4 << 20
	}
	return c
}

// Stats is the /stats payload: admission counters plus the session's
// memo- and store-tier counters.
type Stats struct {
	InFlight    int           `json:"inFlight"`
	MaxInFlight int           `json:"maxInFlight"`
	Served      int64         `json:"served"`
	Shed        int64         `json:"shed"`
	Panics      int64         `json:"panics"`
	Memo        MemoStats     `json:"memo"`
	Store       *StoreStats   `json:"store,omitempty"`
	Webhooks    *WebhookStats `json:"webhooks,omitempty"`
}

// MemoStats is the memory tier of Stats.
type MemoStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hitRate"`
	Entries uint64  `json:"entries"`
}

// StoreStats is the disk tier of Stats.
type StoreStats struct {
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	HitRate    float64 `json:"hitRate"`
	Writebacks uint64  `json:"writebacks"`
	Entries    uint64  `json:"entries"`
}

// Server is one verification service instance over a warm session.
type Server struct {
	cfg  Config
	sess *engine.Session
	http *http.Server
	lis  net.Listener

	// baseCtx parents every request budget; cancelReqs fires when the
	// drain grace expires, degrading still-running verifications to
	// partial Unknown results.
	baseCtx    context.Context
	cancelReqs context.CancelFunc

	sem      chan struct{}
	hooks    *webhookQueue
	reqID    atomic.Int64
	served   atomic.Int64
	shed     atomic.Int64
	panics   atomic.Int64
	draining atomic.Bool
}

// New checks the budget ceilings (engine.CheckLimits, under the serve
// command's flag names), opens the session (taking the store lock when
// cfg.CacheDir is set) and prepares the server. The caller owns the
// listener: pair New with Serve, then Shutdown.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ceilings := budget.Limits{Timeout: cfg.MaxTimeout, MaxStates: cfg.MaxStates, MaxEdges: cfg.MaxEdges}
	if err := engine.CheckLimits(ceilings, "-max-timeout"); err != nil {
		return nil, err
	}
	sess, err := engine.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		sess:       sess,
		baseCtx:    ctx,
		cancelReqs: cancel,
		sem:        make(chan struct{}, cfg.MaxInFlight),
	}
	if len(cfg.WebhookSecret) > 0 {
		s.hooks = newWebhookQueue(cfg.WebhookSecret)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{mode}", s.handleVerify)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	s.http = &http.Server{Handler: mux}
	return s, nil
}

// Serve accepts on l until Shutdown. It returns http.ErrServerClosed
// after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.lis = l
	return s.http.Serve(l)
}

// Addr returns the bound address once Serve has a listener.
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Shutdown drains the server: stop admitting, wait up to grace for
// in-flight requests to finish, then cancel their budgets — the engines
// flush partial Unknown results and the responses still end with a done
// line — and wait for them to unwind. The webhook queue and the session
// close last, so every streamed verdict that should persist has hit the
// store before its lock releases.
func (s *Server) Shutdown(grace time.Duration) error {
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		s.cancelReqs()
		err = s.http.Shutdown(context.Background())
	}
	if s.hooks != nil {
		s.hooks.close()
	}
	s.cancelReqs()
	if cerr := s.sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the admission and cache counters.
func (s *Server) Stats() Stats {
	st := Stats{
		InFlight:    len(s.sem),
		MaxInFlight: s.cfg.MaxInFlight,
		Served:      s.served.Load(),
		Shed:        s.shed.Load(),
		Panics:      s.panics.Load(),
		Memo:        memoStats(s.sess.Cache),
	}
	if s.sess.Disk != nil {
		st.Store = storeStats(s.sess.Disk)
	}
	if s.hooks != nil {
		ws := s.hooks.stats()
		st.Webhooks = &ws
	}
	return st
}

func memoStats(c *memo.Cache) MemoStats {
	st := c.Stats()
	return MemoStats{Hits: st.Hits(), Misses: st.Misses(), HitRate: st.HitRate(), Entries: st.Entries()}
}

func storeStats(d *store.Store) *StoreStats {
	st := d.Stats()
	return &StoreStats{
		Hits: st.Hits(), Misses: st.Misses(), HitRate: st.HitRate(),
		Writebacks: st.Writebacks(), Entries: st.Entries(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("mode")
	m := engine.LookupMode(name)
	if m == nil || !m.Served {
		http.Error(w, fmt.Sprintf("unknown mode %q", name), http.StatusNotFound)
		return
	}
	if faultinject.Enabled() {
		faultinject.Fire(faultinject.ServeAccept, name)
	}
	if r.URL.Query().Get("webhook") != "" && s.hooks == nil {
		http.Error(w, "webhook callbacks disabled: the server has no signing secret", http.StatusBadRequest)
		return
	}
	// Admission control: a full semaphore sheds the request immediately —
	// a bounded queue of verifying goroutines, not an unbounded backlog.
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "too many in-flight verifications", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.sem }()
	src, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(src)) > s.cfg.MaxBody {
		http.Error(w, "spec exceeds the body limit", http.StatusRequestEntityTooLarge)
		return
	}
	s.served.Add(1)
	id := s.reqID.Add(1)
	s.runRequest(w, r, m, id, string(src))
}

// reqBudget builds the request's isolated budget: the limits the query
// asked for, clamped by the server caps, drawing cancellation from both
// the connection (client gone) and the server's drain context.
func (s *Server) reqBudget(r *http.Request, req budget.Limits) (*budget.Budget, context.CancelFunc) {
	lim := budget.Limits{
		Timeout:   clamp(req.Timeout, s.cfg.MaxTimeout),
		MaxStates: clamp(req.MaxStates, s.cfg.MaxStates),
		MaxEdges:  clamp(req.MaxEdges, s.cfg.MaxEdges),
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	stop := context.AfterFunc(r.Context(), cancel)
	return budget.New(ctx, lim), func() { stop(); cancel() }
}

// clamp bounds a requested budget by the server cap (0 cap = unlimited,
// any request honoured; 0 or over-cap request = the cap).
func clamp[T ~int64](req, cap T) T {
	if cap <= 0 {
		return req
	}
	if req <= 0 || req > cap {
		return cap
	}
	return req
}
