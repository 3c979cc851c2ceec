package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"susc/internal/engine"
	"susc/internal/hash"
	"susc/internal/lint"
	"susc/internal/memo"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/store"
	"susc/internal/verify"
)

// The in-process workloads make the calls one CLI invocation makes. An
// untraced op goes through the engine.Session method the CLI calls; a
// traced op makes that method's constituent public calls one by one,
// each inside a span, and must emit the same bytes.

// counters accumulates per-layer counts over the traced ops. A nil
// *counters counts nothing.
type counters struct {
	ops    int
	sum    map[string]float64
	hits   map[string]float64 // numerators of ratios
	totals map[string]float64 // denominators of ratios
}

func newCounters() *counters {
	return &counters{sum: map[string]float64{}, hits: map[string]float64{}, totals: map[string]float64{}}
}

func (c *counters) add(name string, v float64) {
	if c != nil {
		c.sum[name] += v
	}
}

func (c *counters) ratio(name string, hit, total float64) {
	if c == nil {
		return
	}
	c.hits[name] += hit
	c.totals[name] += total
}

// means returns every count as a mean per traced op and every ratio over
// the whole traced run.
func (c *counters) means() map[string]float64 {
	out := map[string]float64{}
	if c.ops == 0 {
		return out
	}
	for k, v := range c.sum {
		out[k] = v / float64(c.ops)
	}
	for k, t := range c.totals {
		if t > 0 {
			out[k] = c.hits[k] / t
		}
	}
	return out
}

// memoDelta adds the memo-tier traffic between two snapshots of one cache.
func (c *counters) memoDelta(before, after memo.Stats) {
	if c == nil {
		return
	}
	misses := float64(after.Misses() - before.Misses())
	hits := float64(after.Hits() - before.Hits())
	c.add("memo.misses", misses)
	c.ratio("memo.hit_ratio", hits, hits+misses)
	c.add("memo.compliance_misses", float64(after.ComplianceMisses-before.ComplianceMisses))
	c.add("memo.product_misses", float64(after.ProductMisses-before.ProductMisses))
	c.add("memo.steps_misses", float64(after.StepsMisses-before.StepsMisses))
	c.add("memo.lts_misses", float64(after.LTSMisses-before.LTSMisses))
	c.add("memo.compiled_misses", float64(after.CompiledMisses-before.CompiledMisses))
	c.add("memo.entries", float64(after.Entries()))
	c.add("memo.approx_mb", float64(after.ApproxBytes)/(1<<20))
}

// storeDelta adds the store traffic between two snapshots of one store.
func (c *counters) storeDelta(before, after store.Stats) {
	if c == nil {
		return
	}
	hits, misses := float64(after.Hits()-before.Hits()), float64(after.Misses()-before.Misses())
	c.add("store.replayed", float64(after.Replayed-before.Replayed))
	c.add("store.hits", hits)
	c.add("store.misses", misses)
	c.add("store.writebacks", float64(after.Writebacks()-before.Writebacks()))
	c.ratio("store.hit_ratio", hits, hits+misses)
	c.add("store.kb", float64(after.Bytes())/1024)
	c.add("lint.store_hits", float64(after.PerKind[store.KindLint].Hits-before.PerKind[store.KindLint].Hits))
	c.add("verify.plan_store_misses",
		float64(after.PerKind[store.KindPlanReport].Misses-before.PerKind[store.KindPlanReport].Misses))
}

// analyzerSpans records the analyzers of a lint or audit run as child
// spans of p. The suite runs its analyzers one after another from the
// start of the call, so their measured durations laid end to end from
// there place each within a few microseconds of where it ran. spanOf
// names an analyzer's span: consecutive analyzers of one name share a
// span, and "" leaves the time in p's own.
func analyzerSpans(p *open, start time.Time, st *lint.Stats, spanOf func(analyzer string) string) {
	at, cur, curStart := start, "", start
	flush := func() {
		if cur != "" {
			p.closed(cur, curStart, at.Sub(curStart))
		}
	}
	for _, a := range st.Analyzers {
		if name := spanOf(a.Name); name != cur {
			flush()
			cur, curStart = name, at
		}
		at = at.Add(a.Duration)
	}
	flush()
}

// auditSpan gives the two audit analyzers with metrics of their own a
// span; unguarded also builds the flow data every audit analyzer reads.
func auditSpan(analyzer string) string {
	if analyzer == "unguarded" || analyzer == "plancoverage" {
		return "audit." + analyzer
	}
	return ""
}

var semanticAnalyzers = func() map[string]bool {
	m := map[string]bool{}
	for _, a := range lint.SemanticAnalyzers() {
		m[a.Name] = true
	}
	return m
}()

// lintSpan folds the semantic analyzers into one span.
func lintSpan(analyzer string) string {
	if semanticAnalyzers[analyzer] {
		return "lint.semantic"
	}
	return ""
}

// sessionWork is an in-process workload whose iteration runs on one
// memory-only session, as a server would: the cold op opens it, the warm
// and edit ops reuse it. Untraced ops go through the engine.Session method;
// traced ops take it apart on the session's cache.
type sessionWork interface {
	untraced(sess *engine.Session, src string) error
	traced(root *open, cache *memo.Cache, src string) error
	check() error
}

func sessionIteration(w sessionWork, cnt *counters, src, editSrc string, rec *recorder, tr *tracer) {
	var sess *engine.Session
	var cache *memo.Cache
	for ph := cold; ph <= edit; ph++ {
		text := src
		if ph == edit {
			text = editSrc
		}
		rec.timeOp(ph, func() error {
			if tr == nil {
				if ph == cold {
					var err error
					if sess, err = engine.Open(""); err != nil {
						return err
					}
				}
				return w.untraced(sess, text)
			}
			root := tr.root(ph.String())
			defer root.end()
			if ph == cold {
				root.call("memo.new", func() { cache = memo.New() })
			}
			cnt.ops++
			return w.traced(root, cache, text)
		}, w.check)
	}
}

// --- plans-chained --------------------------------------------------------

// plansWork runs `susc plans -json` on Chained(12,2), shuffled by the
// seed. An iteration opens a fresh memory-only session and runs the cold
// op, the warm op and the edit op (one seeded service gains an event)
// on it.
type plansWork struct {
	c       chain
	src     string
	editSrc string
	buf     bytes.Buffer
	cnt     *counters
	lastOut []plans.Assessment
}

func setupPlans(cfg runConfig, _ int) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &plansWork{c: chain{depth: 12, fanout: 2}, cnt: newCounters()}
	w.src = w.c.text(rng)
	edited := w.c
	edited.edit = w.c.service(1+rng.Intn(w.c.depth), rng.Intn(w.c.fanout))
	w.editSrc = edited.text(rng)
	for _, src := range []string{w.src, w.editSrc} {
		if _, err := parser.ParseFile(src); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *plansWork) opts() plans.Options {
	return plans.Options{PruneNonCompliant: true, Workers: runtime.GOMAXPROCS(0)}
}

func (w *plansWork) encode(as []plans.Assessment) error {
	w.buf.Reset()
	enc := json.NewEncoder(&w.buf)
	for _, a := range as {
		if err := enc.Encode(engine.ToPlanEntry(a)); err != nil {
			return err
		}
	}
	return nil
}

// untraced is the op through engine.Session.
func (w *plansWork) untraced(sess *engine.Session, src string) error {
	f, err := parser.ParseFile(src)
	if err != nil {
		return err
	}
	c, err := engine.SelectClient(f, "cl")
	if err != nil {
		return err
	}
	as, err := sess.Assess(f, c, w.opts())
	if err != nil {
		return err
	}
	w.lastOut = as
	return w.encode(as)
}

// traced is Session.Assess taken apart.
func (w *plansWork) traced(root *open, cache *memo.Cache, src string) error {
	var f *parser.File
	var err error
	root.call("parser.parse", func() { f, err = parser.ParseFile(src) })
	if err != nil {
		return err
	}
	w.cnt.add("parser.spec_kb", float64(len(src))/1024)
	c, err := engine.SelectClient(f, "cl")
	if err != nil {
		return err
	}
	opts := w.opts()
	opts.Cache = cache
	opts.Stats = &plans.FusedStats{}
	before := cache.Stats()
	var as []plans.Assessment
	root.call("plans.assess", func() { as, err = plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, opts) })
	if err != nil {
		return err
	}
	w.cnt.memoDelta(before, cache.Stats())
	fusedCounters(w.cnt, opts.Stats)
	w.lastOut = as
	root.call("encode.ndjson", func() { err = w.encode(as) })
	w.cnt.add("encode.kb", float64(w.buf.Len())/1024)
	return err
}

func fusedCounters(c *counters, fs *plans.FusedStats) {
	c.add("plans.states_expanded", float64(fs.StatesExpanded.Load()))
	c.add("plans.edges_built", float64(fs.EdgesBuilt.Load()))
	c.add("plans.replay_states", float64(fs.ReplayStates.Load()))
	c.add("plans.replay_memo_hits", float64(fs.ReplayMemoHits.Load()))
	c.add("plans.plans_assessed", float64(fs.PlansAssessed.Load()))
	c.add("plans.bindings_pruned", float64(fs.BindingsPruned.Load()))
	c.ratio("plans.replay_memo_ratio", float64(fs.ReplayMemoHits.Load()), float64(fs.PlansAssessed.Load()))
}

// check holds the last op's answer to Chained(12,2): 4096 plans, all
// valid, one NDJSON record each.
func (w *plansWork) check() error {
	want := w.c.plans()
	if len(w.lastOut) != want {
		return fmt.Errorf("%d plans, want %d", len(w.lastOut), want)
	}
	for _, a := range w.lastOut {
		if a.Report.Verdict != verify.Valid {
			return fmt.Errorf("plan %v is %s, want valid", a.Plan, a.Report.Verdict)
		}
	}
	if n := bytes.Count(w.buf.Bytes(), []byte("\n")); n != want {
		return fmt.Errorf("%d records, want %d", n, want)
	}
	return nil
}

func (w *plansWork) iteration(rec *recorder, tr *tracer) {
	sessionIteration(w, w.cnt, w.src, w.editSrc, rec, tr)
}

func (w *plansWork) measure(d time.Duration, warmUp, rec, traced *recorder, tr *tracer) error {
	loop(d, warmUp, rec, traced, tr, w.iteration)
	return nil
}

func (w *plansWork) layers() map[string]float64 { return w.cnt.means() }
func (w *plansWork) close() error               { return nil }

// --- audit-chained --------------------------------------------------------

// auditWork runs `susc audit -json` on the same seeded Chained(12,2),
// with the same cold, warm and edit ops as plansWork.
type auditWork struct {
	c       chain
	src     string
	editSrc string
	buf     bytes.Buffer
	cnt     *counters
	last    *lint.AuditResult
}

func setupAudit(cfg runConfig, n int) (instance, error) {
	pw, err := setupPlans(cfg, n)
	if err != nil {
		return nil, err
	}
	p := pw.(*plansWork)
	return &auditWork{c: p.c, src: p.src, editSrc: p.editSrc, cnt: newCounters()}, nil
}

func (w *auditWork) encode(res *lint.AuditResult) error {
	w.buf.Reset()
	return encodeAudit(json.NewEncoder(&w.buf), res)
}

// encodeAudit writes an audit's records as `susc audit -json` does: the
// findings, then one coverage record per client.
func encodeAudit(enc *json.Encoder, res *lint.AuditResult) error {
	for _, d := range res.Diagnostics {
		if err := enc.Encode(engine.LintEntry{File: "spec", Diagnostic: d}); err != nil {
			return err
		}
	}
	for _, cc := range res.Coverage {
		if err := enc.Encode(engine.CoverageEntry{File: "spec", Coverage: cc}); err != nil {
			return err
		}
	}
	return nil
}

func (w *auditWork) untraced(sess *engine.Session, src string) error {
	w.last = sess.Audit(src, lint.Options{})
	return w.encode(w.last)
}

// traced is lint.AuditSource taken apart: ParseFileLenient, then Audit.
func (w *auditWork) traced(root *open, cache *memo.Cache, src string) error {
	var f *parser.File
	var issues []parser.Issue
	var err error
	root.call("parser.parse", func() { f, issues, err = parser.ParseFileLenient(src) })
	if err != nil {
		return err
	}
	w.cnt.add("parser.spec_kb", float64(len(src))/1024)
	st := &lint.Stats{}
	before := cache.Stats()
	run := root.child("audit.run")
	start := time.Now()
	w.last = lint.Audit(f, issues, lint.Options{Cache: cache, Stats: st})
	run.end()
	analyzerSpans(run, start, st, auditSpan)
	w.cnt.memoDelta(before, cache.Stats())
	for _, cc := range w.last.Coverage {
		w.cnt.add("audit.valid_plans", float64(cc.ValidPlans))
		w.cnt.add("audit.audited_plans", float64(cc.Audited))
	}
	root.call("encode.ndjson", func() { err = w.encode(w.last) })
	w.cnt.add("encode.kb", float64(w.buf.Len())/1024)
	return err
}

// check holds the audit's answer: no finding, and one client whose 4096
// valid plans are counted while the first 256 are flow-analyzed (the
// audit's per-client cap), so the family is marked capped.
func (w *auditWork) check() error {
	res := w.last
	if len(res.Diagnostics) != 0 {
		return fmt.Errorf("%d findings, want 0 (first: %s)", len(res.Diagnostics), res.Diagnostics[0])
	}
	if len(res.Coverage) != 1 {
		return fmt.Errorf("%d coverage records, want 1", len(res.Coverage))
	}
	cc := res.Coverage[0]
	if cc.ValidPlans != w.c.plans() || cc.Audited != 256 || !cc.Capped || len(cc.Plans) != 256 {
		return fmt.Errorf("coverage %d valid, %d audited, capped %v; want %d, 256, true",
			cc.ValidPlans, cc.Audited, cc.Capped, w.c.plans())
	}
	if n := bytes.Count(w.buf.Bytes(), []byte("\n")); n != 1 {
		return fmt.Errorf("%d records, want 1", n)
	}
	return nil
}

func (w *auditWork) iteration(rec *recorder, tr *tracer) {
	sessionIteration(w, w.cnt, w.src, w.editSrc, rec, tr)
}

func (w *auditWork) measure(d time.Duration, warmUp, rec, traced *recorder, tr *tracer) error {
	loop(d, warmUp, rec, traced, tr, w.iteration)
	return nil
}

func (w *auditWork) layers() map[string]float64 { return w.cnt.means() }
func (w *auditWork) close() error               { return nil }

// --- incremental-clients --------------------------------------------------

// incrementalWork runs `susc checkall -cache DIR` on ChainedClients(6,4,18)
// shuffled by the seed. A cycle opens a fresh store directory and makes
// three runs, each in a new session as a new CLI process would: cold
// (empty store), warm (same file) and edit (the divergent service of a
// seeded client gains an event).
type incrementalWork struct {
	w       clients
	src     string
	editSrc string
	dir     string
	cycle   int
	buf     bytes.Buffer
	cnt     *counters
	last    checkAllOut
}

// checkAllOut is what one checkall run produced.
type checkAllOut struct {
	res   *engine.CheckAllResult
	err   error
	store store.Stats
}

func setupIncremental(cfg runConfig, n int) (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &incrementalWork{w: clients{depth: 6, fanout: 4, n: 18}, cnt: newCounters()}
	w.src = w.w.text(rng)
	k := rng.Intn(w.w.n)
	edited := w.w
	lv, col := w.w.divergent(k)
	edited.edit = chain{}.service(lv, col)
	w.editSrc = edited.text(rng)
	for _, src := range []string{w.src, w.editSrc} {
		if _, err := parser.ParseFile(src); err != nil {
			return nil, err
		}
	}
	// engine.Open creates the store directories as the runs need them.
	w.dir = filepath.Join(cfg.work, fmt.Sprintf("incremental-%d", n))
	return w, nil
}

func (w *incrementalWork) encode(r *verify.Report) error {
	w.buf.Reset()
	enc := json.NewEncoder(&w.buf)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// untraced is one `checkall -cache` invocation: Session open, parse,
// CheckAll, encode, close.
func (w *incrementalWork) untraced(dir, src string) error {
	sess, err := engine.Open(dir)
	if err != nil {
		return err
	}
	f, err := parser.ParseFile(src)
	if err != nil {
		sess.Close()
		return err
	}
	res, runErr := sess.CheckAll(f, src, nil, nil)
	w.last = checkAllOut{res: res, err: runErr, store: sess.Disk.Stats()}
	if runErr == nil {
		if err := w.encode(res.Report); err != nil {
			sess.Close()
			return err
		}
	}
	return sess.Close()
}

// traced is engine.Open and Session.CheckAll taken apart: store.Open,
// memo.New, ParseFile, lint.RunCached, the declared-plan lint.Audit and
// verify.CheckPlanOpts per client.
func (w *incrementalWork) traced(root *open, dir, src string) error {
	var disk *store.Store
	var err error
	root.call("store.open", func() {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			disk, err = store.Open(filepath.Join(dir, "susc.store"), hash.Fingerprint())
		}
	})
	if err != nil {
		return err
	}
	var cache *memo.Cache
	root.call("memo.new", func() {
		cache = memo.New()
		cache.AttachDisk(disk)
	})
	out, err := checkAllTraced(root, w.cnt, cache, disk, src)
	w.last = out
	if err == nil && out.err == nil {
		root.call("encode.ndjson", func() { err = w.encode(out.res.Report) })
		w.cnt.add("encode.kb", float64(w.buf.Len())/1024)
	}
	st := disk.Stats()
	w.last.store = st
	w.cnt.storeDelta(store.Stats{}, st)
	root.call("store.close", func() {
		if cerr := disk.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// checkAllTraced parses src and runs Session.CheckAll's steps (no
// capacity bounds) inside spans, adding their counters to cnt.
func checkAllTraced(root *open, cnt *counters, cache *memo.Cache, disk *store.Store, src string) (checkAllOut, error) {
	var f *parser.File
	var err error
	root.call("parser.parse", func() { f, err = parser.ParseFile(src) })
	if err != nil {
		return checkAllOut{}, err
	}
	cnt.add("parser.spec_kb", float64(len(src))/1024)
	before := cache.Stats()
	res := &engine.CheckAllResult{}

	lst := &lint.Stats{}
	run := root.child("lint.run")
	start := time.Now()
	res.Lint = lint.RunCached(f, nil, src, disk,
		lint.Options{MinSeverity: lint.Warning, Analyzers: lint.AllAnalyzers(), Cache: cache, Stats: lst})
	run.end()
	analyzerSpans(run, start, lst, lintSpan)

	ast := &lint.Stats{}
	run = root.child("audit.run")
	start = time.Now()
	res.Audit = lint.Audit(f, nil, lint.Options{
		MinSeverity: lint.Warning, Cache: cache, AuditDeclaredOnly: true, Stats: ast})
	run.end()
	analyzerSpans(run, start, ast, auditSpan)
	for _, cc := range res.Audit.Coverage {
		cnt.add("audit.valid_plans", float64(cc.ValidPlans))
		cnt.add("audit.audited_plans", float64(cc.Audited))
	}

	agg := &verify.Report{Verdict: verify.Valid}
	for _, c := range f.Clients {
		if c.Plan == nil {
			return checkAllOut{res: res, err: fmt.Errorf("client %s declares no plan", c.Name)}, nil
		}
		var r *verify.Report
		root.call("verify.check", func() {
			r, err = verify.CheckPlanOpts(f.Repo, f.Table, c.Loc, c.Expr, c.Plan, verify.Options{Cache: cache})
		})
		if err != nil {
			return checkAllOut{res: res, err: err}, nil
		}
		cnt.add("verify.states", float64(r.States))
		if r.Verdict != verify.Valid {
			agg = r
			break
		}
		agg.States += r.States
	}
	res.Report = agg
	cnt.memoDelta(before, cache.Stats())
	return checkAllOut{res: res}, nil
}

// check holds a checkall run's answer: every one of the 18 clients is
// valid with no lint or audit finding; the cold run misses the store once
// per client plan, the warm run never misses, and the edit recomputes
// exactly the one plan whose cone holds the edited service.
func (w *incrementalWork) check(ph phase) func() error {
	return func() error {
		o := w.last
		if o.err != nil {
			return o.err
		}
		if err := o.res.Err(nil); err != nil {
			return err
		}
		if len(o.res.Lint) != 0 {
			return fmt.Errorf("%d lint findings, want 0 (first: %s)", len(o.res.Lint), o.res.Lint[0])
		}
		if n := len(o.res.Audit.Coverage); n != w.w.n {
			return fmt.Errorf("%d clients audited, want %d", n, w.w.n)
		}
		planMisses := o.store.PerKind[store.KindPlanReport].Misses
		switch ph {
		case cold:
			if planMisses != uint64(w.w.n) {
				return fmt.Errorf("cold run: %d plan verdicts computed, want %d", planMisses, w.w.n)
			}
		case warm:
			if o.store.Misses() != 0 {
				return fmt.Errorf("warm run: %d store misses, want 0", o.store.Misses())
			}
		case edit:
			if planMisses != 1 {
				return fmt.Errorf("edit run: %d plan verdicts recomputed, want 1", planMisses)
			}
		}
		return nil
	}
}

func (w *incrementalWork) iteration(rec *recorder, tr *tracer) {
	w.cycle++
	dir := filepath.Join(w.dir, fmt.Sprintf("cycle-%d", w.cycle))
	for ph := cold; ph <= edit; ph++ {
		src := w.src
		if ph == edit {
			src = w.editSrc
		}
		rec.timeOp(ph, func() error {
			if tr == nil {
				return w.untraced(dir, src)
			}
			root := tr.root(ph.String())
			defer root.end()
			w.cnt.ops++
			return w.traced(root, dir, src)
		}, w.check(ph))
	}
	if err := os.RemoveAll(dir); err != nil {
		rec.fail(err)
	}
}

func (w *incrementalWork) measure(d time.Duration, warmUp, rec, traced *recorder, tr *tracer) error {
	loop(d, warmUp, rec, traced, tr, w.iteration)
	return nil
}

func (w *incrementalWork) layers() map[string]float64 { return w.cnt.means() }
func (w *incrementalWork) close() error               { return os.RemoveAll(w.dir) }
