package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"susc/internal/engine"
	"susc/internal/lint"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/server"
	"susc/internal/verify"
)

// fixtures are the checked-in specifications the fixed request classes
// post, with the golden outputs their answers are held to.
type fixtures struct {
	booking, hotel, quickstart string
	bookingAudit               string // booking.susc.audit.golden
	quickstartLint             string // quickstart.susc.lint.golden
}

func readFixtures(root string) (fixtures, error) {
	var fx fixtures
	for _, f := range []struct {
		dst  *string
		path string
	}{
		{&fx.booking, "examples/specs/booking.susc"},
		{&fx.hotel, "testdata/hotel.susc"},
		{&fx.quickstart, "examples/specs/quickstart.susc"},
		{&fx.bookingAudit, "examples/specs/booking.susc.audit.golden"},
		{&fx.quickstartLint, "examples/specs/quickstart.susc.lint.golden"},
	} {
		b, err := os.ReadFile(filepath.Join(root, f.path))
		if err != nil {
			return fx, err
		}
		*f.dst = string(b)
	}
	return fx, nil
}

// request is one served op: what to post and how to judge the answer.
type request struct {
	class string
	ph    phase
	mode  string // lint, audit, check, checkall or plans
	query string
	body  string
	check func(records [][]byte) error
}

// response is one parsed NDJSON reply.
type response struct {
	records [][]byte
	control int
	exit    int
	size    int
}

// mix is the seeded request mix, in percent. Five classes post checked-in
// fixtures the server has answered before; novel posts plans for a
// guarded Chained(8,2) whose deny set is drawn fresh every time, so its
// plan verdicts miss the memo tier and the store. Half the novel requests
// also name their services afresh (cold: nothing they need is cached);
// the other half keep the names the server has seen, so only the deny
// set's declaration changed (edit). checkall gives the warm latency, and
// cold and edit the other two; the other classes add load and are
// checked, but report no latency, so each latency metric stays within one
// request class.
var mix = []struct {
	class  string
	weight int
}{
	{"checkall", 35}, {"check", 15}, {"plans", 15}, {"lint", 15}, {"audit", 10}, {"novel", 10},
}

// classes are the kinds of request the generator makes, the novel class
// split into its two halves.
var classes = []string{"checkall", "check", "plans", "lint", "audit", "cold", "edit"}

// generator draws requests from the mix. Names it makes up for a cold
// request carry its tag and a counter, so two generators never post the
// same new text.
type generator struct {
	rng *rand.Rand
	fx  *fixtures
	tag string
	n   int
}

func (g *generator) next() request {
	x := g.rng.Intn(100)
	for _, m := range mix {
		if x >= m.weight {
			x -= m.weight
			continue
		}
		if m.class != "novel" {
			return g.make(m.class)
		}
		if g.rng.Intn(2) == 0 {
			return g.make("cold")
		}
		return g.make("edit")
	}
	panic("mix weights do not sum to 100")
}

func (g *generator) make(class string) request {
	g.n++
	r := request{class: class, ph: unreported, mode: class}
	switch class {
	case "checkall":
		r.ph, r.body = warm, g.fx.booking
		r.check = checkVerdict(verify.Valid, 26)
	case "check":
		// The paper's c1 under its declared plan {r1 -> br, r3 -> s3}.
		r.query, r.body = "client=c1", g.fx.hotel
		r.check = checkVerdict(verify.Valid, 13)
	case "plans":
		r.query, r.body = "client=c1", g.fx.hotel
		r.check = checkHotelPlans
	case "lint":
		r.body = g.fx.quickstart
		r.check = checkLintGolden(g.fx.quickstartLint)
	case "audit":
		r.body = g.fx.booking
		r.check = checkAuditGolden(g.fx.bookingAudit)
	case "cold", "edit":
		c := chain{depth: 8, fanout: 2, prefix: "g_"}
		r.ph = edit
		if class == "cold" {
			c.prefix, r.ph = fmt.Sprintf("%s%d_", g.tag, g.n), cold
		}
		c.deny = c.randomDeny(g.rng)
		r.mode, r.query, r.body = "plans", "client=cl", c.text(g.rng)
		r.check = checkGuardedPlans(c)
	}
	return r
}

// checkVerdict expects one report with the given verdict and state count.
func checkVerdict(want verify.Verdict, states int) func([][]byte) error {
	return func(records [][]byte) error {
		if len(records) != 1 {
			return fmt.Errorf("%d records, want 1", len(records))
		}
		r, err := verify.DecodeReport(records[0])
		if err != nil {
			return err
		}
		if r.Verdict != want || r.States != states {
			return fmt.Errorf("%s in %d states, want %s in %d", r.Verdict, r.States, want, states)
		}
		return nil
	}
}

// checkHotelPlans holds c1's plans to the paper's §2 answer: s2 is pruned
// as non-compliant, s1 is blacklisted, s4 breaks the price/rating
// threshold and only {r1 -> br, r3 -> s3} is valid.
func checkHotelPlans(records [][]byte) error {
	want := map[string]string{"s1": "security-violation", "s3": "valid", "s4": "security-violation"}
	if len(records) != len(want) {
		return fmt.Errorf("%d plans, want %d", len(records), len(want))
	}
	for _, rec := range records {
		var e struct {
			Plan   map[string]string `json:"plan"`
			Report struct {
				Verdict string `json:"verdict"`
			} `json:"report"`
		}
		if err := json.Unmarshal(rec, &e); err != nil {
			return err
		}
		if e.Plan["r1"] != "br" || want[e.Plan["r3"]] != e.Report.Verdict {
			return fmt.Errorf("plan %v is %s", e.Plan, e.Report.Verdict)
		}
	}
	return nil
}

// checkLintGolden expects as many findings as the golden file lists, one
// per unindented line (related spans and witness steps are indented).
func checkLintGolden(golden string) func([][]byte) error {
	want := 0
	for _, line := range strings.Split(golden, "\n") {
		if line != "" && !strings.HasPrefix(line, "\t") {
			want++
		}
	}
	return func(records [][]byte) error {
		if len(records) != want {
			return fmt.Errorf("%d findings, want %d", len(records), want)
		}
		return nil
	}
}

// checkAuditGolden renders the coverage records the way `susc audit`
// prints them and compares the text with the golden file; the fixture
// has no findings, so the golden file is exactly that text.
func checkAuditGolden(golden string) func([][]byte) error {
	return func(records [][]byte) error {
		res := &lint.AuditResult{Complete: true}
		for _, rec := range records {
			var e engine.CoverageEntry
			if err := json.Unmarshal(rec, &e); err != nil {
				return err
			}
			if e.Coverage.Client == "" {
				return fmt.Errorf("unexpected finding %s", rec)
			}
			res.Coverage = append(res.Coverage, e.Coverage)
		}
		if got := res.RenderCoverage(); got != golden {
			return fmt.Errorf("audit coverage differs from the golden file:\n%s", got)
		}
		return nil
	}
}

// checkGuardedPlans expects every plan of the guarded chain, each valid
// exactly when it picks no denied service.
func checkGuardedPlans(c chain) func([][]byte) error {
	return func(records [][]byte) error {
		if len(records) != c.plans() {
			return fmt.Errorf("%d plans, want %d", len(records), c.plans())
		}
		valid := 0
		for _, rec := range records {
			var e struct {
				Plan   map[string]string `json:"plan"`
				Report struct {
					Verdict string `json:"verdict"`
				} `json:"report"`
			}
			if err := json.Unmarshal(rec, &e); err != nil {
				return err
			}
			ok := e.Report.Verdict == "valid"
			if ok != c.planValid(e.Plan) {
				return fmt.Errorf("plan %v is %s", e.Plan, e.Report.Verdict)
			}
			if ok {
				valid++
			}
		}
		if valid != c.validPlans() {
			return fmt.Errorf("%d valid plans, want %d", valid, c.validPlans())
		}
		return nil
	}
}

// serveWork runs the server in-process on a loopback port with a store
// in a scratch directory and drives it over HTTP.
type serveWork struct {
	cfg    runConfig
	fx     fixtures
	dir    string
	srv    *server.Server
	served chan error
	base   string
	client *http.Client
	cnt    *counters

	// The traced run replays each traced request in-process, through the
	// layer calls the server makes, on a session of its own.
	replica    *engine.Session
	replicaDir string
	overhead   []float64 // served minus in-process latency, ms
}

func setupServe(cfg runConfig, n int) (instance, error) {
	w := &serveWork{cfg: cfg, cnt: newCounters()}
	var err error
	if w.fx, err = readFixtures(cfg.root); err != nil {
		return nil, err
	}
	for _, src := range []string{w.fx.booking, w.fx.hotel, w.fx.quickstart} {
		if _, err := parser.ParseFile(src); err != nil {
			return nil, err
		}
	}
	w.dir = filepath.Join(cfg.work, fmt.Sprintf("serve-%d", n))
	if w.srv, err = server.New(server.Config{CacheDir: w.dir}); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Shutdown(0)
		return nil, err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(lis) }()
	w.base = "http://" + lis.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}, Timeout: 30 * time.Second}
	if err := w.healthy(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// healthy polls /healthz until the server answers.
func (w *serveWork) healthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *serveWork) close() error {
	w.client.CloseIdleConnections()
	err := w.srv.Shutdown(5 * time.Second)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if w.replica != nil {
		if cerr := w.replica.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	if w.replicaDir != "" {
		if rerr := os.RemoveAll(w.replicaDir); err == nil {
			err = rerr
		}
	}
	return err
}

// post sends one request and reads the whole NDJSON reply. ttfb, when
// non-nil, receives the time the response headers arrived.
func (w *serveWork) post(r request, ttfb *time.Time) (response, error) {
	url := w.base + "/v1/" + r.mode
	if r.query != "" {
		url += "?" + r.query
	}
	resp, err := w.client.Post(url, "text/plain", strings.NewReader(r.body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	if ttfb != nil {
		*ttfb = time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return response{}, fmt.Errorf("%s: HTTP %d: %s", r.mode, resp.StatusCode, bytes.TrimSpace(body))
	}
	return parseResponse(body)
}

// parseResponse splits a reply into records and control lines and reads
// the final done line.
func parseResponse(body []byte) (response, error) {
	out := response{size: len(body), exit: -1}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		if !bytes.HasPrefix(line, []byte(`{"susc"`)) {
			out.records = append(out.records, line)
			continue
		}
		out.control++
		if i == len(lines)-1 {
			var done struct {
				Susc    string `json:"susc"`
				Exit    int    `json:"exit"`
				Records int    `json:"records"`
				Error   string `json:"error"`
			}
			if err := json.Unmarshal(line, &done); err != nil || done.Susc != "done" {
				return out, fmt.Errorf("reply does not end with a done line")
			}
			if done.Records != len(out.records) {
				return out, fmt.Errorf("done line counts %d records, reply has %d", done.Records, len(out.records))
			}
			out.exit = done.Exit
			if done.Exit != 0 {
				return out, fmt.Errorf("exit %d: %s", done.Exit, done.Error)
			}
		}
	}
	if out.exit != 0 {
		return out, fmt.Errorf("reply does not end with a done line")
	}
	return out, nil
}

// judge checks a reply that parsed with exit 0: only the done line out of
// band, and the records the request's class must produce.
func judge(r request, resp response) error {
	if resp.control != 1 {
		return fmt.Errorf("%s: %d control lines, want only the done line", r.class, resp.control)
	}
	if err := r.check(resp.records); err != nil {
		return fmt.Errorf("%s: %w", r.class, err)
	}
	return nil
}

// do posts r and records it in rec.
func (w *serveWork) do(rec *recorder, r request) {
	start := time.Now()
	resp, err := w.post(r, nil)
	rec.done(r.ph, time.Since(start), err, func() error { return judge(r, resp) })
}

func (w *serveWork) generator(tag string, seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), fx: &w.fx, tag: tag}
}

// measure posts every class once, untimed, then runs one client that
// sends its next request when the previous one is answered, for d. One
// client measures each request's own cost: an open loop at a fixed rate,
// tried first, added idle-core wake-ups that tripled the warm p50 on a
// shared 2-core box, and two clients added each other's work to their
// tails. The traced run replays requests in-process instead (see
// tracedLoop).
func (w *serveWork) measure(d time.Duration, warmUp, rec, traced *recorder, tr *tracer) error {
	g := w.generator("w", w.cfg.seed)
	for _, class := range classes {
		w.do(warmUp, g.make(class))
	}
	if tr != nil {
		return w.tracedLoop(d, rec, traced, tr)
	}
	g = w.generator("m", w.cfg.seed*100)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		w.do(rec, g.next())
	}
	return nil
}

// stats reads /stats.
func (w *serveWork) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := w.client.Get(w.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tracedLoop alternates untraced and traced requests for d. A traced
// request is one op: the served request, in spans for waiting on the
// reply header and reading the body, then the same request made
// in-process by the layer calls the server makes, on a session of its
// own, whose records must equal the served ones.
func (w *serveWork) tracedLoop(d time.Duration, rec, traced *recorder, tr *tracer) error {
	if err := w.openReplica(); err != nil {
		return err
	}
	before, err := w.stats()
	if err != nil {
		return err
	}
	g := w.generator("t", w.cfg.seed*100+1)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			w.do(rec, g.next())
			continue
		}
		w.tracedOp(traced, tr, g.next())
	}
	after, err := w.stats()
	if err != nil {
		return err
	}
	w.cnt.add("server.shed", float64(after.Shed-before.Shed))
	mh, mm := float64(after.Memo.Hits-before.Memo.Hits), float64(after.Memo.Misses-before.Memo.Misses)
	w.cnt.ratio("server.memo_hit_ratio", mh, mh+mm)
	sh, sm := float64(after.Store.Hits-before.Store.Hits), float64(after.Store.Misses-before.Store.Misses)
	w.cnt.ratio("server.store_hit_ratio", sh, sh+sm)
	return nil
}

// openReplica opens the in-process session traced ops replay on, with a
// store of its own, and warms it with every class as measure warms the
// server.
func (w *serveWork) openReplica() error {
	w.replicaDir = filepath.Join(w.cfg.work, "serve-replica")
	var err error
	if w.replica, err = engine.Open(w.replicaDir); err != nil {
		return err
	}
	g := w.generator("w", w.cfg.seed)
	for _, class := range classes {
		if _, err := w.replay(nil, nil, g.make(class)); err != nil {
			return fmt.Errorf("in-process warm-up: %w", err)
		}
	}
	return nil
}

// tracedOp is one traced op: r served, then r replayed in-process.
func (w *serveWork) tracedOp(rec *recorder, tr *tracer, r request) {
	w.cnt.ops++
	root := tr.root(r.ph.String())
	start := time.Now()
	var ttfb time.Time
	resp, err := w.post(r, &ttfb)
	end := time.Now()
	if ttfb.IsZero() {
		ttfb = end
	}
	root.closed("server.ttfb", start, ttfb.Sub(start))
	root.closed("server.body", ttfb, end.Sub(ttfb))
	local, rerr := w.replay(root, w.cnt, r)
	replayed := time.Since(end)
	root.end()
	rec.done(r.ph, end.Sub(start), err, func() error {
		if err := judge(r, resp); err != nil {
			return err
		}
		if rerr == nil {
			rerr = sameRecords(resp.records, local)
		}
		if rerr != nil {
			return fmt.Errorf("%s in-process: %w", r.class, rerr)
		}
		w.cnt.add("server.resp_kb", float64(resp.size)/1024)
		w.overhead = append(w.overhead, ms(end.Sub(start)-replayed))
		return nil
	})
}

// sameRecords compares record sets; the server streams plans in the order
// the engine finishes them, so order is not compared.
func sameRecords(served, local [][]byte) error {
	a := make([]string, len(served))
	for i, r := range served {
		a[i] = string(r)
	}
	b := make([]string, len(local))
	for i, r := range local {
		b[i] = string(r)
	}
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		return fmt.Errorf("records differ from the served ones")
	}
	return nil
}

// replay makes request r in-process on the replica session through the
// calls the server's handler makes, each in a span under root, and
// returns the NDJSON records. With a nil root and counters it records
// nothing.
func (w *serveWork) replay(root *open, cnt *counters, r request) ([][]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var encErr error
	emit := func(v any) {
		if encErr == nil {
			encErr = enc.Encode(v)
		}
	}
	cache, disk := w.replica.Cache, w.replica.Disk
	diskBefore := disk.Stats()
	var err error
	switch r.mode {
	case "checkall":
		out, err := checkAllTraced(root, cnt, cache, disk, r.body)
		if err != nil {
			return nil, err
		}
		if out.err != nil {
			return nil, out.err
		}
		root.call("encode.ndjson", func() { emit(out.res.Report) })
	case "lint", "audit":
		before := cache.Stats()
		var f *parser.File
		var issues []parser.Issue
		root.call("parser.parse", func() { f, issues, err = parser.ParseFileLenient(r.body) })
		if err != nil {
			return nil, err
		}
		cnt.add("parser.spec_kb", float64(len(r.body))/1024)
		if r.mode == "lint" {
			var diags []lint.Diagnostic
			root.call("lint.run", func() { diags = lint.RunCached(f, issues, r.body, disk, lint.Options{Cache: cache}) })
			root.call("encode.ndjson", func() {
				for _, d := range diags {
					emit(engine.LintEntry{File: "spec", Diagnostic: d})
				}
			})
		} else {
			st := &lint.Stats{}
			run := root.child("audit.run")
			start := time.Now()
			res := lint.Audit(f, issues, lint.Options{Cache: cache, Stats: st})
			run.end()
			analyzerSpans(run, start, st, auditSpan)
			root.call("encode.ndjson", func() {
				if encErr == nil {
					encErr = encodeAudit(enc, res)
				}
			})
		}
		cnt.memoDelta(before, cache.Stats())
	case "check", "plans":
		before := cache.Stats()
		var f *parser.File
		root.call("parser.parse", func() { f, err = parser.ParseFile(r.body) })
		if err != nil {
			return nil, err
		}
		cnt.add("parser.spec_kb", float64(len(r.body))/1024)
		c, err := engine.SelectClient(f, strings.TrimPrefix(r.query, "client="))
		if err != nil {
			return nil, err
		}
		if r.mode == "check" {
			var rep *verify.Report
			root.call("verify.check", func() {
				rep, err = verify.CheckPlanOpts(f.Repo, f.Table, c.Loc, c.Expr, c.Plan, verify.Options{Cache: cache})
			})
			if err != nil {
				return nil, err
			}
			cnt.add("verify.states", float64(rep.States))
			root.call("encode.ndjson", func() { emit(rep) })
		} else {
			opts := plans.Options{PruneNonCompliant: true, Workers: runtime.GOMAXPROCS(0), Cache: cache, Stats: &plans.FusedStats{}}
			var as []plans.Assessment
			root.call("plans.assess", func() { as, err = plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, opts) })
			if err != nil {
				return nil, err
			}
			fusedCounters(cnt, opts.Stats)
			root.call("encode.ndjson", func() {
				for _, a := range as {
					emit(engine.ToPlanEntry(a))
				}
			})
		}
		cnt.memoDelta(before, cache.Stats())
	default:
		return nil, fmt.Errorf("unknown mode %q", r.mode)
	}
	if encErr != nil {
		return nil, encErr
	}
	cnt.add("encode.kb", float64(buf.Len())/1024)
	cnt.storeDelta(diskBefore, disk.Stats())
	if buf.Len() == 0 {
		return nil, nil
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")), nil
}

func (w *serveWork) layers() map[string]float64 {
	m := w.cnt.means()
	m["server.overhead_ms"] = median(w.overhead)
	return m
}
