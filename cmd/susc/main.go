// Command susc is the command-line front end of the secure-and-unfailing
// services toolkit. It operates on source files in the surface syntax of
// internal/parser (policies, instances, services, clients) and exposes the
// paper's analyses:
//
//	susc parse      FILE                 parse and list the declarations
//	susc project    FILE                 print the contract H! of every service
//	susc compliance FILE                 compliance matrix: request bodies vs services
//	susc validity   FILE                 validity of every service under every policy
//	susc plans      FILE -client NAME    enumerate and classify every plan
//	susc check      FILE -client NAME    validate the client's declared plan
//	susc run        FILE -client NAME    simulate the network under the declared plan
//	susc fmt        FILE                 reformat to canonical surface syntax
//	susc lint       FILE                 static analysis: positioned diagnostics
//	                                     (dead services, vacuous policies, …);
//	                                     -json (NDJSON), -severity LEVEL, -stats
//	susc explain    FILE                 semantic analysis with counterexamples:
//	                                     model-check every declaration and print a
//	                                     minimal witness trace per finding
//	                                     (SUSC011–015); -code SUSCnnn, -json, -dot
//	susc dot        FILE -policy P | -lts NAME | -product OWNER.REQ -vs LOC
//	                                     render an artifact as Graphviz dot
//	susc effect     FILE.lam [-decls FILE.susc]
//	                                     infer the type and effect of a λ-program;
//	                                     with declarations, also classify its plans
//	susc substitutable FILE -old LOC -new LOC
//	                                     can -new replace -old without breaking clients?
//	susc dual       FILE -of NAME[.REQ]  print the canonical dual contract
//	susc checkall   FILE [-cap loc=n,..] validate all declared clients at once,
//	                                     optionally under bounded availability;
//	                                     also runs the declared-plan flow audit
//	susc audit      FILE                 whole-network security-flow audit: annotate
//	                                     every reachable event with its active
//	                                     framing set across all valid plans and
//	                                     report coverage findings (SUSC017–021)
//	                                     plus a per-plan coverage table;
//	                                     -plan (declared plans only), -json,
//	                                     -severity LEVEL, -stats, -wdot
//	susc serve                           long-running verification service: POST a
//	                                     spec to /v1/{lint,audit,check,checkall,plans}
//	                                     and stream NDJSON results; -addr, -cache,
//	                                     -max-inflight, -max-timeout, -max-states,
//	                                     -max-edges, -grace, -ready-file,
//	                                     -webhook-secret
//
// check, checkall and plans accept -json for machine-readable reports.
// plans also accepts -stream (print each assessment as the fused engine
// produces it; with -json, one object per line) and -stats (memo-cache and
// fused-engine work counters on stderr).
//
// plans, check, checkall, lint and audit accept -cache DIR: verdicts
// persist in DIR/susc.store, keyed by the content hash of their dependency
// cone, and replay from disk on the next run (incremental re-verification;
// -stats adds the per-kind disk-tier counters).
//
// The exploration commands — plans, check, checkall, lint, explain,
// audit — accept -timeout, -max-states and -max-edges, bounding the state-space
// work; they also install a SIGINT/SIGTERM handler that cancels the
// exploration and still prints the partial results. Verdicts decided
// before the cutoff stand; the rest degrade to "unknown". Exit codes
// distinguish the outcomes: 0 success, 1 findings (invalid plan, lint
// errors), 2 internal error (an isolated worker panic), 3 budget
// exhausted or interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"susc/internal/budget"
	"susc/internal/compliance"
	"susc/internal/contract"
	"susc/internal/engine"
	"susc/internal/hexpr"
	"susc/internal/lambda"
	"susc/internal/lint"
	"susc/internal/lts"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/server"
	"susc/internal/store"
	"susc/internal/valid"
	"susc/internal/verify"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "susc:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps an error to the CLI's exit-code protocol: 2 for an
// internal error (an isolated worker panic — the message carries the
// repro unit), 3 for a budget cutoff (state/edge limit, -timeout,
// SIGINT/SIGTERM), 1 for ordinary findings and failures. Internal errors
// outrank budget cutoffs, which outrank findings. The translation lives
// in engine.ExitCode so the server reports the same codes.
func exitCode(err error) int {
	return engine.ExitCode(err)
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: susc <parse|fmt|lint|explain|audit|project|compliance|validity|plans|check|checkall|run|dot|effect|substitutable|dual> FILE [flags], or susc serve [flags]")
	}
	cmd := args[0]
	if cmd == "serve" {
		// serve takes no FILE; its flags parse separately.
		return cmdServe(args[1:])
	}
	switch cmd {
	case "parse", "fmt", "lint", "explain", "audit", "project", "compliance", "validity", "plans", "check", "run",
		"dot", "effect", "substitutable", "dual", "checkall":
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	clientName := fs.String("client", "", "client declaration to operate on")
	seed := fs.Int64("seed", 0, "scheduler seed for run (0 = deterministic)")
	steps := fs.Int("steps", network.DefaultMaxSteps, "step budget for run")
	monitored := fs.Bool("monitor", false, "run with the run-time validity monitor")
	prune := fs.Bool("prune", true, "prune non-compliant bindings during plan synthesis")
	dotPolicy := fs.String("policy", "", "dot: render this policy template")
	dotLTS := fs.String("lts", "", "dot: render the LTS of this service or client")
	dotProduct := fs.String("product", "", "dot: render the product of this request (client.request or service.request)")
	dotVs := fs.String("vs", "", "dot: the service the product is built against")
	decls := fs.String("decls", "", "effect: declarations file resolving policy aliases and services")
	oldLoc := fs.String("old", "", "substitutable: the service being replaced")
	newLoc := fs.String("new", "", "substitutable: the candidate replacement")
	dualOf := fs.String("of", "", "dual: service, client, or OWNER.REQUEST to dualise")
	capSpec := fs.String("cap", "", "checkall: bounded availability, e.g. \"br=2,s3=1\"")
	planOnly := fs.Bool("plan", false,
		"audit: audit only each client's declared plan instead of the whole valid-plan family")
	jsonOut := fs.Bool("json", false, "check/checkall/plans/lint: JSON output (lint: NDJSON, one diagnostic per line)")
	stream := fs.Bool("stream", false,
		"plans: print each assessment as it is produced (with -json, one object per line)")
	stats := fs.Bool("stats", false,
		"plans/check/checkall/lint: print per-engine work counters on stderr")
	cacheDir := fs.String("cache", "",
		"plans/check/checkall/lint: persist verdicts in DIR/susc.store and reuse them across runs (incremental re-verification)")
	severity := fs.String("severity", "info",
		"lint: report findings at or above this severity (info, warning, error)")
	codeFilter := fs.String("code", "",
		"explain: only report findings with this diagnostic code (e.g. SUSC011)")
	witnessDot := fs.Bool("wdot", false,
		"explain: render each witness as a Graphviz digraph instead of text")
	runAll := fs.Bool("all", false, "run: simulate all declared clients concurrently")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"plans/effect: validate candidate plans with this many goroutines")
	timeout := fs.Duration("timeout", 0,
		"plans/check/checkall/lint/explain: wall-clock budget (0 = none)")
	maxStates := fs.Int64("max-states", 0,
		"plans/check/checkall/lint/explain: state budget for the exploration (0 = unlimited)")
	maxEdges := fs.Int64("max-edges", 0,
		"plans/check/checkall/lint/explain: edge budget for the exploration (0 = unlimited)")
	if len(args) < 2 {
		return fmt.Errorf("usage: susc %s FILE [flags]", cmd)
	}
	path := args[1]
	if err := fs.Parse(args[2:]); err != nil {
		return err
	}
	// Only the budget-aware exploration commands trap SIGINT/SIGTERM: a
	// first signal cancels the budget so partial results still print; a
	// second signal falls back to the default handler and kills the
	// process. Interactive commands (run, parse, …) keep ^C fatal.
	var bud *budget.Budget
	switch cmd {
	case "plans", "check", "checkall", "lint", "explain", "audit":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		bud = budget.New(ctx, budget.Limits{
			MaxStates: *maxStates,
			MaxEdges:  *maxEdges,
			Timeout:   *timeout,
		})
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if cmd == "effect" {
		return cmdEffect(string(src), *decls, *workers)
	}
	if cmd == "lint" {
		// lint parses leniently itself, so one run can report several
		// independent problems (and parse errors become diagnostics).
		return cmdLint(path, string(src), *jsonOut, *severity, *stats, *cacheDir, bud)
	}
	if cmd == "explain" {
		// explain also parses leniently: the semantic analyzers skip what
		// does not parse and still explain the declarations that do.
		return cmdExplain(path, string(src), *codeFilter, *jsonOut, *witnessDot, bud)
	}
	if cmd == "audit" {
		// audit parses leniently too: a parse error comes back as one
		// positioned SUSC000 finding instead of a crash.
		return cmdAudit(path, string(src), *jsonOut, *severity, *stats, *witnessDot, *planOnly, *cacheDir, bud)
	}
	f, err := parser.ParseFile(string(src))
	if err != nil {
		return err
	}
	switch cmd {
	case "parse":
		return cmdParse(f)
	case "fmt":
		fmt.Print(parser.Format(f))
		return nil
	case "dot":
		return cmdDot(f, *dotPolicy, *dotLTS, *dotProduct, *dotVs)
	case "project":
		return cmdProject(f)
	case "compliance":
		return cmdCompliance(f)
	case "validity":
		return cmdValidity(f)
	case "plans":
		return cmdPlans(f, *clientName, *prune, *jsonOut, *stream, *stats, *workers, *cacheDir, bud)
	case "check":
		return cmdCheck(f, *clientName, *jsonOut, *stats, *cacheDir, bud)
	case "checkall":
		return cmdCheckAll(f, string(src), *capSpec, *jsonOut, *stats, *cacheDir, bud)
	case "run":
		return cmdRun(f, *clientName, *seed, *steps, *monitored, *runAll, *capSpec)
	case "substitutable":
		return cmdSubstitutable(f, *oldLoc, *newLoc)
	case "dual":
		return cmdDual(f, *dualOf)
	}
	return nil
}

// cmdServe boots the long-running verification service: one warm
// engine session behind an HTTP front end that answers POSTed specs
// with streamed NDJSON results (see internal/server for the protocol).
// Startup failures — an unparseable or occupied address, a store
// already locked by another process — return an error (exit 1).
// SIGINT/SIGTERM starts a graceful drain: no new requests are admitted,
// in-flight ones get -grace to finish (then their budgets are cancelled
// so they flush partial Unknown results), and a clean drain exits 0.
// serveOpts holds the parsed serve flags; serveFlagSet registers them
// so the docs drift test can enumerate every flag the mode accepts.
type serveOpts struct {
	addr, cacheDir, readyFile, webhookSecret *string
	maxInflight                              *int
	maxStates, maxEdges                      *int64
	maxTimeout, grace                        *time.Duration
}

func serveFlagSet() (*flag.FlagSet, *serveOpts) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	o := &serveOpts{
		addr: fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)"),
		cacheDir: fs.String("cache", "",
			"persist verdicts in DIR/susc.store shared by every request (advisory-locked against other processes)"),
		maxInflight: fs.Int("max-inflight", 4,
			"admission control: maximum concurrently verifying requests; excess is shed with 429"),
		maxTimeout: fs.Duration("max-timeout", 0,
			"clamp for per-request wall-clock budgets (0 = unlimited)"),
		maxStates: fs.Int64("max-states", 0, "clamp for per-request state budgets (0 = unlimited)"),
		maxEdges:  fs.Int64("max-edges", 0, "clamp for per-request edge budgets (0 = unlimited)"),
		grace: fs.Duration("grace", 5*time.Second,
			"drain grace: how long in-flight requests may finish after SIGINT/SIGTERM"),
		readyFile: fs.String("ready-file", "",
			"write the bound address to this file once listening (for scripts using -addr :0)"),
		webhookSecret: fs.String("webhook-secret", "",
			"HMAC key for signed result callbacks (default $SUSC_WEBHOOK_SECRET; empty disables webhooks)"),
	}
	return fs, o
}

func cmdServe(args []string) error {
	fs, o := serveFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no FILE; POST specs to the running server instead")
	}
	secret := *o.webhookSecret
	if secret == "" {
		secret = os.Getenv("SUSC_WEBHOOK_SECRET")
	}
	srv, err := server.New(server.Config{
		CacheDir:      *o.cacheDir,
		MaxInFlight:   *o.maxInflight,
		MaxTimeout:    *o.maxTimeout,
		MaxStates:     *o.maxStates,
		MaxEdges:      *o.maxEdges,
		WebhookSecret: []byte(secret),
	})
	if err != nil {
		return err
	}
	// Signals are caught before the ready-file appears, so a supervisor
	// that waits for it can immediately send SIGTERM and still get a
	// clean drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *o.addr)
	if err != nil {
		srv.Shutdown(time.Second)
		return err
	}
	if *o.readyFile != "" {
		if werr := os.WriteFile(*o.readyFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			ln.Close()
			srv.Shutdown(time.Second)
			return werr
		}
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own; the drain below only cleans up.
		srv.Shutdown(time.Second)
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintf(os.Stderr, "serve: draining (grace %v)\n", *o.grace)
	if err := srv.Shutdown(*o.grace); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "serve: drained")
	return nil
}

// printCacheStats reports the memory-tier counters on stderr (CI's audit
// gate parses the hit rate off this line).
func printCacheStats(cache *memo.Cache) {
	st := cache.Stats()
	fmt.Fprintf(os.Stderr, "stats: cache %d hits, %d misses (%.1f%% hit rate), %d entries, ~%d bytes\n",
		st.Hits(), st.Misses(), st.HitRate()*100, st.Entries(), st.ApproxBytes)
}

// printStoreStats reports the disk-tier counters on stderr: the overall
// line plus one line per record kind that saw traffic (CI keys on the
// per-kind lines to gate incremental recompute fractions).
func printStoreStats(enabled bool, disk *store.Store) {
	if !enabled || disk == nil {
		return
	}
	st := disk.Stats()
	fmt.Fprintf(os.Stderr,
		"stats: store %d hits, %d misses (%.1f%% hit rate), %d write-backs, %d entries, ~%d bytes, opened in %v (%d records replayed)\n",
		st.Hits(), st.Misses(), st.HitRate()*100, st.Writebacks(),
		st.Entries(), st.Bytes(), st.OpenTime, st.Replayed)
	if st.HealedBytes > 0 {
		fmt.Fprintf(os.Stderr, "stats: store healed a torn tail of %d byte(s) on open\n", st.HealedBytes)
	}
	if st.Reset {
		fmt.Fprintln(os.Stderr, "stats: store reset on open (engine fingerprint or format version changed)")
	}
	for _, k := range store.Kinds() {
		t := st.PerKind[k]
		if t.Hits+t.Misses+t.Writebacks == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "stats: store/%s %d hits, %d misses, %d write-backs, %d entries, ~%d bytes\n",
			store.KindName(k), t.Hits, t.Misses, t.Writebacks, t.Entries, t.Bytes)
	}
}

// cmdLint runs the static-analysis suite over a specification file and
// prints positioned diagnostics: text ("file:line:col: severity: message
// [CODE]") or, with -json, NDJSON with one diagnostic object per line.
// The exit status is non-zero iff any error-severity finding is reported.
func cmdLint(path, src string, jsonOut bool, severity string, stats bool, cacheDir string, bud *budget.Budget) error {
	minSev, err := lint.ParseSeverity(severity)
	if err != nil {
		return err
	}
	sess, err := engine.Open(cacheDir)
	if err != nil {
		return err
	}
	defer sess.Close()
	opts := lint.Options{MinSeverity: minSev, Budget: bud}
	if stats {
		opts.Stats = &lint.Stats{}
	}
	diags := sess.Lint(src, opts)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(engine.LintEntry{File: path, Diagnostic: d}); err != nil {
				return err
			}
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%s\n", path, d)
			for _, r := range d.Related {
				fmt.Printf("\t%s:%s: %s\n", path, r.Span, r.Message)
			}
		}
	}
	counts := map[lint.Severity]int{}
	for _, d := range diags {
		counts[d.Severity]++
	}
	if stats {
		for _, a := range opts.Stats.Analyzers {
			fmt.Fprintf(os.Stderr, "stats: lint %-14s %d finding(s) in %v\n", a.Name, a.Findings, a.Duration)
		}
		printCacheStats(sess.Cache)
		printStoreStats(true, sess.Disk)
	}
	if !jsonOut && len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s): %d error(s), %d warning(s), %d info\n",
			len(diags), counts[lint.Error], counts[lint.Warning], counts[lint.Info])
	}
	// Exit-code protocol: an isolated analyzer panic (a SUSC016 "failed"
	// diagnostic) outranks a budget cutoff, which outranks ordinary
	// findings.
	return engine.LintErr(diags, bud)
}

// cmdExplain runs the full analyzer suite — the default syntactic
// analyzers plus the semantic model checkers (SUSC011–015) — and reports
// the findings that carry a counterexample witness, each with its minimal
// trace printed step by step and anchored at file:line:col. -code keeps
// one diagnostic code, -json emits NDJSON (witness included), -wdot
// renders each witness as a Graphviz digraph. The exit status is non-zero
// iff any error-severity witness is reported.
func cmdExplain(path, src, code string, jsonOut, wdot bool, bud *budget.Budget) error {
	diags := lint.Source(src, lint.Options{Analyzers: lint.AllAnalyzers(), Cache: memo.New(), Budget: bud})
	var kept []lint.Diagnostic
	for _, d := range diags {
		if d.Witness == nil {
			continue
		}
		if code != "" && d.Code != code {
			continue
		}
		kept = append(kept, d)
	}
	errs := 0
	switch {
	case jsonOut:
		enc := json.NewEncoder(os.Stdout)
		for _, d := range kept {
			if err := enc.Encode(engine.LintEntry{File: path, Diagnostic: d}); err != nil {
				return err
			}
		}
	case wdot:
		for i, d := range kept {
			fmt.Print(d.Witness.DOT(fmt.Sprintf("%s_%d", d.Code, i)))
		}
	default:
		for _, d := range kept {
			fmt.Printf("%s:%s\n", path, d)
			for _, r := range d.Related {
				fmt.Printf("\t%s:%s: %s\n", path, r.Span, r.Message)
			}
			fmt.Print(d.Witness.Render(path))
		}
	}
	for _, d := range kept {
		if d.Severity == lint.Error {
			errs++
		}
	}
	if !jsonOut && !wdot && len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "explain: %d finding(s) with witnesses, %d error(s)\n", len(kept), errs)
	}
	for _, d := range diags {
		if d.Code == lint.CodeInternalError && !strings.HasPrefix(d.Message, "analysis stopped") {
			return &budget.InternalError{Unit: "explain", Value: d.Message}
		}
	}
	if e := bud.Exhausted(); e != nil {
		return e
	}
	if errs > 0 {
		return fmt.Errorf("explain: %d error(s)", errs)
	}
	return nil
}

// cmdAudit runs the whole-network security-flow audit (SUSC017–021): an
// abstract interpretation of every valid plan of every client annotating
// each reachable event occurrence with its active-framing set, then the
// coverage analyzers over the result. Text output prints the findings
// (with their witness traces) followed by the per-client, per-plan
// "event × guarding policies" coverage tables; -json emits NDJSON — one
// diagnostic object per line, then one coverage object per client. -plan
// restricts the audit to each client's declared plan (the checkall mode);
// -wdot renders the witnesses as Graphviz digraphs instead. The exit
// status is 1 when any warning-or-worse finding is reported, 2 on an
// isolated analyzer panic, 3 on budget exhaustion.
func cmdAudit(path, src string, jsonOut bool, severity string, stats, wdot, planOnly bool, cacheDir string, bud *budget.Budget) error {
	minSev, err := lint.ParseSeverity(severity)
	if err != nil {
		return err
	}
	sess, err := engine.Open(cacheDir)
	if err != nil {
		return err
	}
	defer sess.Close()
	opts := lint.Options{
		MinSeverity:       minSev,
		Budget:            bud,
		AuditDeclaredOnly: planOnly,
	}
	if stats {
		opts.Stats = &lint.Stats{}
	}
	res := sess.Audit(src, opts)
	diags := res.Diagnostics
	switch {
	case jsonOut:
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(engine.LintEntry{File: path, Diagnostic: d}); err != nil {
				return err
			}
		}
		for _, cc := range res.Coverage {
			if err := enc.Encode(engine.CoverageEntry{File: path, Coverage: cc}); err != nil {
				return err
			}
		}
	case wdot:
		for i, d := range diags {
			if d.Witness == nil {
				continue
			}
			fmt.Print(d.Witness.DOT(fmt.Sprintf("%s_%d", d.Code, i)))
		}
	default:
		for _, d := range diags {
			fmt.Printf("%s:%s\n", path, d)
			for _, r := range d.Related {
				fmt.Printf("\t%s:%s: %s\n", path, r.Span, r.Message)
			}
			if d.Witness != nil {
				fmt.Print(d.Witness.Render(path))
			}
		}
		fmt.Print(res.RenderCoverage())
		if !res.Complete {
			fmt.Println("audit incomplete: some plan families were skipped, capped or cut off; the universally quantified codes (SUSC017/018/020) stayed silent")
		}
	}
	if stats {
		for _, a := range opts.Stats.Analyzers {
			fmt.Fprintf(os.Stderr, "stats: audit %-14s %d finding(s) in %v\n", a.Name, a.Findings, a.Duration)
		}
		printCacheStats(sess.Cache)
		printStoreStats(true, sess.Disk)
	}
	findings := 0
	for _, d := range diags {
		if d.Severity >= lint.Warning && d.Code != lint.CodeInternalError {
			findings++
		}
	}
	if !jsonOut && len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "audit: %d finding(s), %d at warning or above\n", len(diags), findings)
	}
	return engine.AuditErr(res, bud)
}

// cmdSubstitutable decides whether -new can replace -old in the repository
// without breaking any compliant client.
func cmdSubstitutable(f *parser.File, oldName, newName string) error {
	if oldName == "" || newName == "" {
		return fmt.Errorf("substitutable wants -old and -new services")
	}
	oldSvc, ok := f.Repo[hexpr.Location(oldName)]
	if !ok {
		return fmt.Errorf("no service %q", oldName)
	}
	newSvc, ok := f.Repo[hexpr.Location(newName)]
	if !ok {
		return fmt.Errorf("no service %q", newName)
	}
	sub, err := compliance.Substitutable(oldSvc, newSvc)
	if err != nil {
		return err
	}
	eq, err := contract.Equivalent(oldSvc, newSvc)
	if err != nil {
		return err
	}
	switch {
	case eq:
		fmt.Printf("%s and %s are EQUIVALENT: interchangeable both ways\n", oldName, newName)
	case sub:
		fmt.Printf("%s can replace %s: every compliant client stays compliant\n", newName, oldName)
	default:
		fmt.Printf("%s can NOT safely replace %s\n", newName, oldName)
		return fmt.Errorf("not substitutable")
	}
	return nil
}

// cmdDual prints the canonical dual of a service, a client, or a request
// body (OWNER.REQUEST).
func cmdDual(f *parser.File, of string) error {
	if of == "" {
		return fmt.Errorf("dual wants -of NAME or -of OWNER.REQUEST")
	}
	var e hexpr.Expr
	if owner, req, ok := strings.Cut(of, "."); ok {
		ownerExpr, err := exprByName(f, owner)
		if err != nil {
			return err
		}
		body, _, err := contract.RequestBody(ownerExpr, hexpr.RequestID(req))
		if err != nil {
			return err
		}
		e = body
	} else {
		var err error
		e, err = exprByName(f, of)
		if err != nil {
			return err
		}
	}
	d, err := contract.Dual(e)
	if err != nil {
		return err
	}
	fmt.Printf("contract : %s\n", hexpr.Pretty(contract.Project(e)))
	fmt.Printf("dual     : %s\n", hexpr.Pretty(d))
	return nil
}

// cmdEffect infers the type and effect of a λ-program; with a declarations
// file, policy aliases resolve and the program's plans are classified
// against the declared repository.
func cmdEffect(src, declsPath string, workers int) error {
	var aliases map[string]hexpr.PolicyID
	var f *parser.File
	if declsPath != "" {
		declSrc, err := os.ReadFile(declsPath)
		if err != nil {
			return err
		}
		f, err = parser.ParseFile(string(declSrc))
		if err != nil {
			return err
		}
		aliases = f.Instances
	}
	term, err := parser.ParseLambdaWith(src, aliases)
	if err != nil {
		return err
	}
	ty, eff, err := lambda.InferClosed(term)
	if err != nil {
		return err
	}
	fmt.Printf("type   : %s\n", ty)
	fmt.Printf("effect : %s\n", hexpr.Pretty(eff))
	if f == nil {
		return nil
	}
	reqs := hexpr.Requests(eff)
	if len(reqs) == 0 {
		return nil
	}
	fmt.Println("plans  :")
	as, err := plans.AssessAll(f.Repo, f.Table, "program", eff, plans.Options{Workers: workers})
	if err != nil {
		return err
	}
	for _, a := range as {
		fmt.Printf("  %-30s %s\n", a.Plan, a.Report)
	}
	return nil
}

// cmdDot renders one artifact as Graphviz dot: a policy template, the LTS
// of a declared service or client, or the product automaton of a request
// against a service.
func cmdDot(f *parser.File, policyName, ltsName, productSpec, vs string) error {
	switch {
	case policyName != "":
		a, ok := f.Automata[policyName]
		if !ok {
			return fmt.Errorf("no policy %q", policyName)
		}
		fmt.Print(a.DOT())
		return nil
	case ltsName != "":
		e, err := exprByName(f, ltsName)
		if err != nil {
			return err
		}
		l, err := lts.Build(e)
		if err != nil {
			return err
		}
		fmt.Print(l.DOT(ltsName))
		return nil
	case productSpec != "":
		owner, req, ok := strings.Cut(productSpec, ".")
		if !ok {
			return fmt.Errorf("-product wants OWNER.REQUEST, got %q", productSpec)
		}
		ownerExpr, err := exprByName(f, owner)
		if err != nil {
			return err
		}
		body, _, err := contract.RequestBody(ownerExpr, hexpr.RequestID(req))
		if err != nil {
			return err
		}
		service, ok := f.Repo[hexpr.Location(vs)]
		if !ok {
			return fmt.Errorf("-vs: no service %q", vs)
		}
		p, err := compliance.NewProduct(body, service)
		if err != nil {
			return err
		}
		fmt.Print(p.DOT(productSpec + "_vs_" + vs))
		return nil
	}
	return fmt.Errorf("dot wants one of -policy, -lts or -product (with -vs)")
}

// exprByName resolves a service location or client name to its expression.
func exprByName(f *parser.File, name string) (hexpr.Expr, error) {
	if e, ok := f.Repo[hexpr.Location(name)]; ok {
		return e, nil
	}
	if c, err := f.Client(name); err == nil {
		return c.Expr, nil
	}
	return nil, fmt.Errorf("no service or client named %q", name)
}

func cmdParse(f *parser.File) error {
	var aliases []string
	for a := range f.Instances {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		fmt.Printf("instance %-10s = %s\n", a, f.Instances[a])
	}
	for _, loc := range f.Repo.Locations() {
		fmt.Printf("service  %-10s = %s\n", loc, hexpr.Pretty(f.Repo[loc]))
	}
	for _, c := range f.Clients {
		fmt.Printf("client   %-10s @ %s plan %s = %s\n", c.Name, c.Loc, c.Plan, hexpr.Pretty(c.Expr))
	}
	return nil
}

func cmdProject(f *parser.File) error {
	for _, loc := range f.Repo.Locations() {
		fmt.Printf("%-10s ! = %s\n", loc, hexpr.Pretty(contract.Project(f.Repo[loc])))
	}
	for _, c := range f.Clients {
		fmt.Printf("%-10s ! = %s\n", c.Name, hexpr.Pretty(contract.Project(c.Expr)))
	}
	return nil
}

// cmdCompliance prints, for every request body found in clients and
// services, its compliance against every service of the repository.
func cmdCompliance(f *parser.File) error {
	type req struct {
		owner string
		id    hexpr.RequestID
		body  hexpr.Expr
	}
	var reqs []req
	collect := func(owner string, e hexpr.Expr) {
		hexpr.Walk(e, func(x hexpr.Expr) {
			if s, ok := x.(hexpr.Session); ok {
				reqs = append(reqs, req{owner: owner, id: s.Req, body: s.Body})
			}
		})
	}
	for _, c := range f.Clients {
		collect(c.Name, c.Expr)
	}
	for _, loc := range f.Repo.Locations() {
		collect(string(loc), f.Repo[loc])
	}
	locs := f.Repo.Locations()
	fmt.Printf("%-16s", "request")
	for _, l := range locs {
		fmt.Printf(" %-8s", l)
	}
	fmt.Println()
	for _, r := range reqs {
		fmt.Printf("%-16s", fmt.Sprintf("%s.%s", r.owner, r.id))
		for _, l := range locs {
			ok, err := compliance.Compliant(r.body, f.Repo[l])
			if err != nil {
				return err
			}
			mark := "no"
			if ok {
				mark = "YES"
			}
			fmt.Printf(" %-8s", mark)
		}
		fmt.Println()
	}
	return nil
}

// cmdValidity prints, for every service and every policy instance, whether
// the service framed by the policy is valid.
func cmdValidity(f *parser.File) error {
	var aliases []string
	for a := range f.Instances {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	fmt.Printf("%-10s", "service")
	for _, a := range aliases {
		fmt.Printf(" %-8s", a)
	}
	fmt.Println()
	for _, loc := range f.Repo.Locations() {
		fmt.Printf("%-10s", loc)
		for _, a := range aliases {
			framed := hexpr.Frame(f.Instances[a], f.Repo[loc])
			ok, err := valid.Valid(framed, f.Table)
			if err != nil {
				return err
			}
			mark := "VIOL"
			if ok {
				mark = "ok"
			}
			fmt.Printf(" %-8s", mark)
		}
		fmt.Println()
	}
	return nil
}

func cmdPlans(f *parser.File, name string, prune, jsonOut, stream, stats bool, workers int, cacheDir string, bud *budget.Budget) error {
	c, err := engine.SelectClient(f, name)
	if err != nil {
		return err
	}
	sess, err := engine.Open(cacheDir)
	if err != nil {
		return err
	}
	defer sess.Close()
	opts := plans.Options{
		PruneNonCompliant: prune,
		Workers:           workers,
		Budget:            bud,
	}
	if stats {
		opts.Stats = &plans.FusedStats{}
	}
	// finalize closes the run once all partial results are printed: an
	// isolated worker panic (exit 2) outranks a budget cutoff or
	// interruption (exit 3).
	finalize := func(runErr error) error {
		if err := printPlanStats(stats, sess.Cache, opts.Stats); err != nil {
			return err
		}
		printStoreStats(stats, sess.Disk)
		if runErr != nil {
			return runErr
		}
		if e := bud.Exhausted(); e != nil {
			return e
		}
		return nil
	}
	if stream {
		// Stream assessments as the fused engine produces them — first
		// results appear while later plans are still being replayed.
		var enc *json.Encoder
		if jsonOut {
			enc = json.NewEncoder(os.Stdout)
		}
		total, validCount := 0, 0
		err := sess.AssessStream(f, c, opts,
			func(a plans.Assessment) error {
				total++
				if a.Report.Verdict == verify.Valid {
					validCount++
				}
				if jsonOut {
					return enc.Encode(engine.ToPlanEntry(a))
				}
				fmt.Printf("%-30s %s\n", a.Plan, a.Report)
				return nil
			})
		if err != nil && !errors.As(err, new(*budget.InternalError)) {
			return err
		}
		if !jsonOut {
			fmt.Printf("%d plan(s), %d valid\n", total, validCount)
		}
		return finalize(err)
	}
	as, err := sess.Assess(f, c, opts)
	if err != nil && !errors.As(err, new(*budget.InternalError)) {
		return err
	}
	runErr := err
	if jsonOut {
		out := make([]engine.PlanEntry, len(as))
		for i, a := range as {
			out[i] = engine.ToPlanEntry(a)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		return finalize(runErr)
	}
	validCount := 0
	for _, a := range as {
		fmt.Printf("%-30s %s\n", a.Plan, a.Report)
		if a.Report.Verdict == verify.Valid {
			validCount++
		}
	}
	fmt.Printf("%d plan(s), %d valid\n", len(as), validCount)
	return finalize(runErr)
}

// printPlanStats reports the memo-cache hit rate and the fused engine's
// work counters on stderr (keeping stdout machine-readable under -json).
func printPlanStats(enabled bool, cache *memo.Cache, fs *plans.FusedStats) error {
	if !enabled {
		return nil
	}
	printCacheStats(cache)
	if fs != nil {
		fmt.Fprintf(os.Stderr,
			"stats: fused %d plans assessed, %d states expanded, %d edges, %d replay states, %d memo hits, %d bindings pruned\n",
			fs.PlansAssessed.Load(), fs.StatesExpanded.Load(), fs.EdgesBuilt.Load(),
			fs.ReplayStates.Load(), fs.ReplayMemoHits.Load(), fs.BindingsPruned.Load())
	}
	return nil
}

func cmdCheck(f *parser.File, name string, jsonOut, stats bool, cacheDir string, bud *budget.Budget) error {
	c, err := engine.SelectClient(f, name)
	if err != nil {
		return err
	}
	sess, err := engine.Open(cacheDir)
	if err != nil {
		return err
	}
	defer sess.Close()
	r, err := sess.CheckPlan(f, c, bud)
	if err != nil {
		return err
	}
	if stats {
		printCacheStats(sess.Cache)
		printStoreStats(true, sess.Disk)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return err
		}
	} else {
		fmt.Printf("client %s under %s: %s\n", c.Name, c.Plan, r)
	}
	return engine.CheckErr(r, bud)
}

// cmdCheckAll validates every declared client, optionally under bounded
// availability ("loc=n,loc=n"). Without capacity bounds the components of
// a network never interact, so each client is checked by its own
// exploration — the per-client verdicts persist independently in the
// -cache store, which is what makes re-checking an edited repository
// proportional to the edit's dependency cone. With bounded availability
// the clients compete for replicas and only the whole-network product
// exploration is sound, so the verdict is checked (and persisted) whole.
func cmdCheckAll(f *parser.File, src, capSpec string, jsonOut, stats bool, cacheDir string, bud *budget.Budget) error {
	var caps map[hexpr.Location]int
	if capSpec != "" {
		var err error
		caps, err = engine.ParseCaps(capSpec)
		if err != nil {
			return err
		}
	}
	sess, err := engine.Open(cacheDir)
	if err != nil {
		return err
	}
	defer sess.Close()
	res, runErr := sess.CheckAll(f, src, caps, bud)
	// Lint and audit findings surface alongside the verdict (on stderr, so
	// -json stdout stays machine-readable); witness details stay behind
	// `susc explain` and `susc audit -plan`.
	for _, d := range res.Lint {
		fmt.Fprintf(os.Stderr, "lint: %s\n", d)
		if d.Witness != nil {
			fmt.Fprintf(os.Stderr, "lint: \trun `susc explain FILE -code %s` for the %d-step witness\n",
				d.Code, len(d.Witness.Steps))
		}
	}
	if res.Audit != nil {
		for _, d := range res.Audit.Diagnostics {
			fmt.Fprintf(os.Stderr, "audit: %s\n", d)
			if d.Code == lint.CodeInternalError {
				continue
			}
			if d.Witness != nil {
				fmt.Fprintf(os.Stderr, "audit: \trun `susc audit FILE -plan` for the %d-step witness\n",
					len(d.Witness.Steps))
			}
		}
	}
	if runErr != nil {
		return runErr
	}
	if stats {
		printCacheStats(sess.Cache)
		printStoreStats(true, sess.Disk)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Report); err != nil {
			return err
		}
	} else {
		fmt.Printf("network of %d client(s): %s\n", len(f.Clients), res.Report)
	}
	return res.Err(bud)
}

func cmdRun(f *parser.File, name string, seed int64, steps int, monitored, all bool, capSpec string) error {
	var selected []parser.ClientDecl
	if all {
		selected = f.Clients
	} else {
		c, err := engine.SelectClient(f, name)
		if err != nil {
			return err
		}
		selected = []parser.ClientDecl{c}
	}
	var clients []network.Client
	for _, c := range selected {
		if c.Plan == nil {
			return fmt.Errorf("client %s declares no plan", c.Name)
		}
		clients = append(clients, network.Client{Loc: c.Loc, Expr: c.Expr, Plan: c.Plan})
	}
	cfg := network.NewConfig(f.Repo, f.Table, clients...)
	if capSpec != "" {
		caps, err := engine.ParseCaps(capSpec)
		if err != nil {
			return err
		}
		cfg.WithAvailability(caps)
	}
	opts := network.RunOptions{MaxSteps: steps, Monitored: monitored}
	if seed != 0 {
		opts.Rand = rand.New(rand.NewSource(seed))
	}
	res := cfg.Run(opts)
	fmt.Printf("status: %s after %d steps\n", res.Status, res.Steps)
	for _, e := range res.Trace {
		fmt.Printf("  [%s] %s\n", selected[e.Comp].Name, e.Label)
	}
	for i, comp := range cfg.Comps {
		fmt.Printf("history of %s: %s\n", selected[i].Name, comp.Hist)
	}
	return nil
}
