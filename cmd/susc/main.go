// Command susc is the command-line front end of the secure-and-unfailing
// services toolkit. It operates on source files in the surface syntax of
// internal/parser (policies, instances, services, clients) and exposes the
// paper's analyses as commands: susc CMD FILE [flags], or susc serve
// [flags] for the long-running verification service. Run without
// arguments, susc prints the usage line; susc CMD -h lists one command's
// flags; README.md's "Command and flag reference", pinned to the command
// list by a test, lists every command with its flags.
//
// The verification modes (lint, explain, audit, plans, check, checkall)
// come from internal/engine's mode table, which also backs the server's
// /v1/<mode> endpoints. Each reads the budget trio -timeout, -max-states
// and -max-edges and installs a SIGINT/SIGTERM handler that cancels the
// exploration and still prints the partial results. Verdicts decided
// before the cutoff stand; the rest degrade to "unknown". Exit codes
// distinguish the outcomes: 0 success, 1 findings (invalid plan, lint
// errors), 2 internal error (an isolated worker panic), 3 budget
// exhausted or interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
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
	"susc/internal/lts"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/server"
	"susc/internal/valid"
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

// A command is one susc subcommand.
type command struct {
	name, synopsis string
	noFile         bool // serve takes no FILE operand
	// flags defines the command's flags on fs and returns its action,
	// which runs on the FILE operand once fs has parsed.
	flags func(fs *flag.FlagSet) func(path string) error
}

// commands is the command list, in usage order.
var commands = []command{
	{name: "parse", synopsis: "parse and list the declarations", flags: noFlags(cmdParse)},
	{name: "fmt", synopsis: "reformat to canonical surface syntax", flags: noFlags(cmdFmt)},
	mode("lint"),
	mode("explain"),
	mode("audit"),
	{name: "project", synopsis: "print the contract H! of every service and client", flags: noFlags(cmdProject)},
	{name: "compliance", synopsis: "compliance matrix: request bodies vs services", flags: noFlags(cmdCompliance)},
	{name: "validity", synopsis: "validity of every service under every policy", flags: noFlags(cmdValidity)},
	mode("plans"),
	mode("check"),
	mode("checkall"),
	{name: "run", synopsis: "simulate the network under the declared plans", flags: runFlags},
	{name: "dot", synopsis: "render a policy, an LTS or a product automaton as Graphviz dot", flags: dotFlags},
	{name: "effect", synopsis: "infer the type and effect of the λ-program FILE; with -decls, also classify its plans", flags: effectFlags},
	{name: "substitutable", synopsis: "can -new replace -old without breaking any compliant client?", flags: substitutableFlags},
	{name: "dual", synopsis: "print the canonical dual contract", flags: dualFlags},
	{name: "serve", noFile: true, synopsis: "long-running verification service answering POSTed specs with NDJSON", flags: serveFlags},
}

// usage renders the usage line from the command list.
func usage() string {
	var file []string
	rest := ""
	for _, c := range commands {
		if c.noFile {
			rest += ", or susc " + c.name + " [flags]"
		} else {
			file = append(file, c.name)
		}
	}
	return "usage: susc <" + strings.Join(file, "|") + "> FILE [flags]" + rest
}

func run(args []string) error {
	if len(args) < 1 {
		return errors.New(usage())
	}
	var c *command
	for i := range commands {
		if commands[i].name == args[0] {
			c = &commands[i]
		}
	}
	if c == nil {
		return fmt.Errorf("unknown command %q", args[0])
	}
	path, rest := "", args[1:]
	if !c.noFile {
		if len(args) < 2 {
			return fmt.Errorf("usage: susc %s FILE [flags]", c.name)
		}
		path, rest = args[1], args[2:]
	}
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	action := c.flags(fs)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if c.noFile && fs.NArg() > 0 {
		return fmt.Errorf("%s takes no FILE; POST specs to the running server instead", c.name)
	}
	return action(path)
}

// mode is the command for one mode of the engine's table.
func mode(name string) command {
	m := engine.LookupMode(name)
	return command{name: m.Name, synopsis: m.Synopsis, flags: func(fs *flag.FlagSet) func(string) error {
		p := m.Flags(fs, false)
		return func(path string) error { return runMode(m, p, path) }
	}}
}

// runMode runs a mode on FILE with the session under -cache, writing to
// stdout and stderr. Every mode reads the budget trio, so the run gets a
// budget that a first SIGINT/SIGTERM cancels — partial results still
// print — while a second signal falls back to the default handler and
// kills the process. The other commands keep ^C fatal.
func runMode(m *engine.Mode, p *engine.Params, path string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bud := budget.New(ctx, p.Limits())
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sess, err := engine.Open(p.Cache)
	if err != nil {
		return err
	}
	defer sess.Close()
	return m.Run(sess, &engine.Request{File: path, Src: string(src), Budget: bud, Params: *p},
		&engine.Output{Stdout: os.Stdout, Stderr: os.Stderr})
}

// noFlags is a command without flags that runs fn on the parsed FILE.
func noFlags(fn func(f *parser.File) error) func(*flag.FlagSet) func(string) error {
	return func(*flag.FlagSet) func(string) error { return parsed(fn) }
}

// parsed reads and strictly parses FILE, then runs fn on it.
func parsed(fn func(f *parser.File) error) func(string) error {
	return func(path string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(string(src))
		if err != nil {
			return err
		}
		return fn(f)
	}
}

// runFlags shares -client and -cap with the modes that read them.
func runFlags(fs *flag.FlagSet) func(string) error {
	p := engine.NewParams()
	engine.ClientParam.Define(fs, p)
	engine.CapParam.Define(fs, p)
	seed := fs.Int64("seed", 0, "scheduler seed `N` (0 = deterministic)")
	steps := fs.Int("steps", network.DefaultMaxSteps, "step budget `N`")
	monitored := fs.Bool("monitor", false, "run with the run-time validity monitor")
	all := fs.Bool("all", false, "simulate all declared clients concurrently")
	return parsed(func(f *parser.File) error {
		return cmdRun(f, p.Client, *seed, *steps, *monitored, *all, p.Cap)
	})
}

func dotFlags(fs *flag.FlagSet) func(string) error {
	policyName := fs.String("policy", "", "render the policy template `P`")
	ltsName := fs.String("lts", "", "render the LTS of the service or client `NAME`")
	productSpec := fs.String("product", "", "render the product of the request `OWNER.REQ` against -vs")
	vs := fs.String("vs", "", "the service `LOC` the -product is built against")
	return parsed(func(f *parser.File) error {
		return cmdDot(f, *policyName, *ltsName, *productSpec, *vs)
	})
}

func effectFlags(fs *flag.FlagSet) func(string) error {
	decls := fs.String("decls", "", "declarations file `FILE.susc` resolving policy aliases and services")
	return func(path string) error { return cmdEffect(path, *decls) }
}

func substitutableFlags(fs *flag.FlagSet) func(string) error {
	oldLoc := fs.String("old", "", "the service `LOC` being replaced")
	newLoc := fs.String("new", "", "the candidate replacement service `LOC`")
	return parsed(func(f *parser.File) error { return cmdSubstitutable(f, *oldLoc, *newLoc) })
}

func dualFlags(fs *flag.FlagSet) func(string) error {
	of := fs.String("of", "", "the service or client to dualise, or its request (`NAME[.REQ]`)")
	return parsed(func(f *parser.File) error { return cmdDual(f, *of) })
}

// serveFlags boots the long-running verification service: one warm
// engine session behind an HTTP front end that answers POSTed specs
// with streamed NDJSON results (see internal/server for the protocol).
// Startup failures — an unparseable or occupied address, a store
// already locked by another process — return an error (exit 1).
// SIGINT/SIGTERM starts a graceful drain: no new requests are admitted,
// in-flight ones get -grace to finish (then their budgets are cancelled
// so they flush partial Unknown results), and a clean drain exits 0.
// -cache, -max-states and -max-edges are server-wide here: the store
// every request shares and the ceilings of the request budgets.
func serveFlags(fs *flag.FlagSet) func(string) error {
	addr := fs.String("addr", "127.0.0.1:8080", "listen address `host:port` (port 0 picks a free port)")
	cacheDir := fs.String("cache", "",
		"persist verdicts in `DIR`/susc.store shared by every request (advisory-locked against other processes)")
	maxInflight := fs.Int("max-inflight", 4,
		"admission control: at most `N` concurrently verifying requests; excess is shed with 429")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp `D` for per-request wall-clock budgets (0 = unlimited)")
	maxStates := fs.Int64("max-states", 0, "clamp `N` for per-request state budgets (0 = unlimited)")
	maxEdges := fs.Int64("max-edges", 0, "clamp `N` for per-request edge budgets (0 = unlimited)")
	grace := fs.Duration("grace", 5*time.Second,
		"drain grace `D`: how long in-flight requests may finish after SIGINT/SIGTERM")
	readyFile := fs.String("ready-file", "",
		"write the bound address to `PATH` once listening (for scripts using -addr :0)")
	webhookSecret := fs.String("webhook-secret", "",
		"HMAC `KEY` for signed result callbacks (default $SUSC_WEBHOOK_SECRET; empty disables webhooks)")
	return func(string) error {
		secret := *webhookSecret
		if secret == "" {
			secret = os.Getenv("SUSC_WEBHOOK_SECRET")
		}
		srv, err := server.New(server.Config{
			CacheDir:      *cacheDir,
			MaxInFlight:   *maxInflight,
			MaxTimeout:    *maxTimeout,
			MaxStates:     *maxStates,
			MaxEdges:      *maxEdges,
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
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			srv.Shutdown(time.Second)
			return err
		}
		if *readyFile != "" {
			if werr := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
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
		fmt.Fprintf(os.Stderr, "serve: draining (grace %v)\n", *grace)
		if err := srv.Shutdown(*grace); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "serve: drained")
		return nil
	}
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
func cmdEffect(path, declsPath string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
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
	term, err := parser.ParseLambdaWith(string(src), aliases)
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
	as, err := plans.AssessAll(f.Repo, f.Table, "program", eff, plans.Options{})
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

func cmdFmt(f *parser.File) error {
	fmt.Print(parser.Format(f))
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
	caps, err := engine.FileCaps(f, capSpec)
	if err != nil {
		return err
	}
	cfg := network.NewConfig(f.Repo, f.Table, clients...)
	if caps != nil {
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
