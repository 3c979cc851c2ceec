package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hash"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/policy"
	"susc/internal/store"
	"susc/internal/verify"
)

// renderAudit prints an audit result the way `susc audit` does, minus the
// file name prefix: the findings (with witnesses) followed by the
// coverage tables, plus the incompleteness marker.
func renderAudit(res *AuditResult) string {
	var b strings.Builder
	b.WriteString(render(res.Diagnostics))
	b.WriteString(res.RenderCoverage())
	if !res.Complete {
		b.WriteString("audit incomplete\n")
	}
	return b.String()
}

// TestAuditGolden audits every specification shipped in the repository
// and compares the rendered findings and coverage tables against sibling
// .audit.golden files. Run with -update to regenerate (the flag is shared
// with TestGolden).
func TestAuditGolden(t *testing.T) {
	cache := memo.New()
	for _, path := range specFiles(t, "testdata", "../../testdata", "../../examples") {
		t.Run(path, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := renderAudit(AuditSource(string(src), Options{Cache: cache}))
			golden := path + ".audit.golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/lint -run TestAuditGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("audit output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestAuditFixtureCodes pins each audit fixture to the exact codes it
// must trigger, and checks the fixtures jointly cover SUSC017–021.
func TestAuditFixtureCodes(t *testing.T) {
	expected := map[string][]string{
		"susc017_unguarded.susc":     {CodeUnguardedEvent},
		"susc018_redundant.susc":     {CodeRedundantFraming},
		"susc019_plandependent.susc": {CodePlanDependentCoverage},
		"susc020_deadpolicy.susc":    {CodeDeadPolicy},
		"susc021_scopeleak.susc":     {CodeFramingLeak},
		"clean.susc":                 {},
	}
	covered := map[string]bool{}
	cache := memo.New()
	for name, want := range expected {
		src, err := os.ReadFile(filepath.Join("testdata", "audit", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := AuditSource(string(src), Options{Cache: cache})
		if !res.Complete {
			t.Errorf("%s: audit incomplete — the fixtures must be fully analysable", name)
		}
		var got []string
		for _, d := range res.Diagnostics {
			got = append(got, d.Code)
			covered[d.Code] = true
			if d.Span.IsZero() {
				t.Errorf("%s: diagnostic %s has no source span: %s", name, d.Code, d)
			}
			if d.Witness == nil {
				t.Errorf("%s: audit diagnostic %s carries no witness", name, d.Code)
			}
		}
		if !equalStrings(got, want) {
			t.Errorf("%s: got codes %v, want %v", name, got, want)
		}
	}
	for _, code := range []string{CodeUnguardedEvent, CodeRedundantFraming,
		CodePlanDependentCoverage, CodeDeadPolicy, CodeFramingLeak} {
		if !covered[code] {
			t.Errorf("no audit fixture triggers %s", code)
		}
	}
}

// replayWitness re-runs a witness trace on the actual network semantics:
// from the client's initial configuration under the witness's plan, it
// follows the recorded labels (DFS over the matching moves, since a label
// may resolve to several successors) and returns the monitor state the
// trace ends in. The replay proves the trace is executable — every
// audit finding must survive it.
func replayWitness(t *testing.T, f *parser.File, c parser.ClientDecl, w *Witness) *history.Monitor {
	t.Helper()
	plan := network.Plan{}
	for r, l := range w.Plan {
		plan[hexpr.RequestID(r)] = hexpr.Location(l)
	}
	cache := memo.New()
	var dfs func(tree network.Node, mon *history.Monitor, step int) *history.Monitor
	dfs = func(tree network.Node, mon *history.Monitor, step int) *history.Monitor {
		if step == len(w.Steps) {
			return mon
		}
		want := w.Steps[step].Label
		for _, m := range network.TreeMovesStep(tree, plan, f.Repo, cache.Steps) {
			if m.Label.String() != want {
				continue
			}
			next := mon
			if len(m.Items) > 0 {
				next = mon.Snapshot()
				ok := true
				for _, it := range m.Items {
					if err := next.Append(it); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
			}
			if got := dfs(m.Tree, next, step+1); got != nil {
				return got
			}
		}
		return nil
	}
	got := dfs(network.Leaf{Loc: c.Loc, Expr: c.Expr}, history.NewMonitor(f.Table), 0)
	if got == nil {
		t.Fatalf("witness trace %v is not executable on the network semantics", labelsOf(w))
	}
	return got
}

func labelsOf(w *Witness) []string {
	var out []string
	for _, s := range w.Steps {
		out = append(out, s.Label)
	}
	return out
}

// auditFixture audits one fixture and returns the parsed file plus the
// single expected diagnostic.
func auditFixture(t *testing.T, name, code string) (*parser.File, Diagnostic) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "audit", name))
	if err != nil {
		t.Fatal(err)
	}
	f, issues, err := parser.ParseFileLenient(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res := Audit(f, issues, Options{Cache: memo.New()})
	for _, d := range res.Diagnostics {
		if d.Code == code {
			return f, d
		}
	}
	t.Fatalf("%s: no %s finding", name, code)
	return nil, Diagnostic{}
}

// clientOf resolves the client a witness belongs to: the one whose
// replayed trace is executable. Fixtures name the offending client in the
// message, so match on that.
func clientOf(t *testing.T, f *parser.File, d Diagnostic) parser.ClientDecl {
	t.Helper()
	for _, c := range f.Clients {
		if strings.Contains(d.Message, " client "+c.Name+" ") ||
			strings.Contains(d.Message, " in client "+c.Name) ||
			strings.HasSuffix(d.Message, " "+c.Name) {
			return c
		}
	}
	// Findings not tied to one client (SUSC018) replay on the client the
	// witness plan belongs to: the first client whose declared plan
	// matches, else the only client.
	if len(f.Clients) == 1 {
		return f.Clients[0]
	}
	t.Fatalf("cannot resolve the witness's client for %s: %s", d.Code, d.Message)
	return parser.ClientDecl{}
}

// TestReplaySUSC017: the uncovered witness executes, and at its end the
// reported event has just fired with no watching policy active.
func TestReplaySUSC017(t *testing.T) {
	f, d := auditFixture(t, "susc017_unguarded.susc", CodeUnguardedEvent)
	c := clientOf(t, f, d)
	mon := replayWitness(t, f, c, d.Witness)
	// The last step performs the event; the watching policies active at
	// the end must not include any watcher of `read` (opening framings in
	// the last step would have changed the mask, and there are none).
	ct := f.Table.Compiled()
	if got := relevantPolicies(ct, "read", activeIDs(mon, ct)); len(got) != 0 {
		t.Errorf("read replayed with watching policies %v active, want none", got)
	}
	if ct.WatchedMask("read") == 0 {
		t.Error("fixture broken: read must be critical")
	}
}

// TestReplaySUSC018: the redundant-framing witness executes, and at its
// end both the implied framing and its ambient cover are active.
func TestReplaySUSC018(t *testing.T) {
	f, d := auditFixture(t, "susc018_redundant.susc", CodeRedundantFraming)
	c := clientOf(t, f, d)
	mon := replayWitness(t, f, c, d.Witness)
	active := mon.Active()
	if active[hexpr.PolicyID("two_inner[]")] == 0 {
		t.Errorf("replay must end with the redundant framing open, active = %v", active)
	}
	if active[hexpr.PolicyID("two_outer[]")] == 0 {
		t.Errorf("replay must end with the ambient policy active, active = %v", active)
	}
}

// TestReplaySUSC019: the plan-coverage witness executes under the
// unguarded plan and ends with the critical event bare.
func TestReplaySUSC019(t *testing.T) {
	f, d := auditFixture(t, "susc019_plandependent.susc", CodePlanDependentCoverage)
	c := clientOf(t, f, d)
	if d.Witness.Plan["r1"] != "sb" {
		t.Fatalf("witness must replay under the unguarded plan, got %v", d.Witness.Plan)
	}
	mon := replayWitness(t, f, c, d.Witness)
	ct := f.Table.Compiled()
	if got := relevantPolicies(ct, "act", activeIDs(mon, ct)); len(got) != 0 {
		t.Errorf("act replayed with watching policies %v active, want none", got)
	}
}

// TestReplaySUSC020: the dead-policy witness has no steps — there is no
// activation to replay; the claim is the absence of one.
func TestReplaySUSC020(t *testing.T) {
	_, d := auditFixture(t, "susc020_deadpolicy.susc", CodeDeadPolicy)
	if len(d.Witness.Steps) != 0 {
		t.Errorf("dead-policy witness must be stepless, got %v", labelsOf(d.Witness))
	}
	if d.Witness.Note == "" {
		t.Error("dead-policy witness must explain the audited plan count")
	}
}

// TestReplaySUSC021: the scope-leak witness executes and ends inside the
// leaking scope — the policy is active when the trace stops.
func TestReplaySUSC021(t *testing.T) {
	f, d := auditFixture(t, "susc021_scopeleak.susc", CodeFramingLeak)
	c := clientOf(t, f, d)
	mon := replayWitness(t, f, c, d.Witness)
	if mon.Active()[hexpr.PolicyID("leakp[]")] == 0 {
		t.Errorf("replay must end with the leaking scope open, active = %v", mon.Active())
	}
}

// activeIDs renders the monitor's active set as policy-id strings.
func activeIDs(mon *history.Monitor, ct *policy.CompiledTable) []string {
	var out []string
	for id, n := range mon.Active() {
		if n > 0 {
			out = append(out, string(id))
		}
	}
	return out
}

// TestAuditCoverageShape pins the exported coverage model on the
// plan-dependent fixture: both plans appear, the guarded one lists the
// policy, the unguarded one flags the row.
func TestAuditCoverageShape(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "audit", "susc019_plandependent.susc"))
	if err != nil {
		t.Fatal(err)
	}
	res := AuditSource(string(src), Options{Cache: memo.New()})
	if len(res.Coverage) != 1 {
		t.Fatalf("coverage clients = %d, want 1", len(res.Coverage))
	}
	cc := res.Coverage[0]
	if cc.Client != "c" || cc.ValidPlans != 2 || cc.Audited != 2 {
		t.Fatalf("client coverage = %+v, want c with 2/2 plans", cc)
	}
	var guarded, unguarded *PlanCoverage
	for i := range cc.Plans {
		switch cc.Plans[i].Plan["r1"] {
		case "sg":
			guarded = &cc.Plans[i]
		case "sb":
			unguarded = &cc.Plans[i]
		}
	}
	if guarded == nil || unguarded == nil {
		t.Fatalf("both plans must be audited, got %+v", cc.Plans)
	}
	g := guarded.Rows[0]
	if g.Event != "act" || len(g.Guards) != 1 || g.Guards[0] != "two[]" || g.Unguarded {
		t.Errorf("guarded row = %+v, want act guarded by two[]", g)
	}
	u := unguarded.Rows[0]
	if u.Event != "act" || len(u.Guards) != 0 || !u.Unguarded {
		t.Errorf("unguarded row = %+v, want act flagged UNGUARDED", u)
	}
}

// TestAuditDeclaredOnly pins the checkall mode: only declared plans are
// flow-analyzed, so the plan-dependent fixture (whose client declares no
// plan) is skipped and reported incomplete.
func TestAuditDeclaredOnly(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "audit", "susc019_plandependent.susc"))
	if err != nil {
		t.Fatal(err)
	}
	res := AuditSource(string(src), Options{Cache: memo.New(), AuditDeclaredOnly: true})
	if res.Complete {
		t.Error("declared-only audit of a plan-less client must be incomplete")
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("no findings expected from the skipped client, got %v", res.Diagnostics)
	}
	if len(res.Coverage) != 1 || res.Coverage[0].Skipped == "" {
		t.Errorf("coverage must record the skip reason, got %+v", res.Coverage)
	}
	// The unguarded fixture declares plans for both clients: the declared
	// mode reproduces SUSC017 without enumerating the family.
	src2, err := os.ReadFile(filepath.Join("testdata", "audit", "susc017_unguarded.susc"))
	if err != nil {
		t.Fatal(err)
	}
	res2 := AuditSource(string(src2), Options{Cache: memo.New(), AuditDeclaredOnly: true})
	found := false
	for _, d := range res2.Diagnostics {
		if d.Code == CodeUnguardedEvent {
			found = true
		}
	}
	if !found {
		t.Errorf("declared-only audit must still report SUSC017, got %v", res2.Diagnostics)
	}
}

// TestAuditDiskTier: flows persist under KindAudit and replay on the next
// run; the second audit is all disk hits. Within one session, flows are
// also read from the memory tier, and `cached` keeps its meaning — read
// from the store, not explored by this run: a memory-only session never
// marks a plan cached, a store-backed one marks every plan cached from
// its second audit on. Concurrent audits on one session share the flows
// the memory tier holds, so none may write to them.
func TestAuditDiskTier(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "audit", "clean.susc"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func(name string) *store.Store {
		st, err := store.Open(filepath.Join(dir, name), hash.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	disk := open("susc.store")
	cache := memo.New()
	cache.AttachDisk(disk)
	res := AuditSource(string(src), Options{Cache: cache})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("clean fixture reported %v", res.Diagnostics)
	}
	if st := disk.Stats(); st.PerKind[store.KindAudit].Writebacks == 0 {
		t.Error("first audit must write flow records back to the store")
	}
	disk.Close()

	disk = open("susc.store")
	cache = memo.New()
	cache.AttachDisk(disk)
	res = AuditSource(string(src), Options{Cache: cache})
	st := disk.Stats()
	if st.PerKind[store.KindAudit].Hits == 0 || st.PerKind[store.KindAudit].Misses != 0 {
		t.Errorf("second audit must replay from disk: audit tier %+v", st.PerKind[store.KindAudit])
	}
	if len(res.Coverage) != 1 || len(res.Coverage[0].Plans) != 1 || !res.Coverage[0].Plans[0].Cached {
		t.Errorf("replayed coverage must be marked cached, got %+v", res.Coverage)
	}
	disk.Close()

	chain := benchgen.ChainedSource(4, 2)
	plans := func(res *AuditResult) []PlanCoverage {
		t.Helper()
		if len(res.Coverage) != 1 || len(res.Coverage[0].Plans) != 16 {
			t.Fatalf("want one client with 16 audited plans, got %+v", res.Coverage)
		}
		return res.Coverage[0].Plans
	}
	cachedPlans := func(res *AuditResult) (n int) {
		for _, pc := range plans(res) {
			if pc.Cached {
				n++
			}
		}
		return n
	}

	// One memory-only session: the second audit reads every flow from
	// memory and marks none cached.
	mem := memo.New()
	first := AuditSource(chain, Options{Cache: mem})
	hits := mem.Stats().ReportHits
	second := AuditSource(chain, Options{Cache: mem})
	if !reflect.DeepEqual(first, second) {
		t.Errorf("memory-only session: second audit differs:\n%s\nfirst:\n%s", renderAudit(second), renderAudit(first))
	}
	if n := cachedPlans(second); n != 0 {
		t.Errorf("memory-only session: %d plans cached, want 0", n)
	}
	if got := mem.Stats().ReportHits - hits; got != 16+16 {
		t.Errorf("memory-only session: second audit made %d report hits, want 32 (16 verdicts, 16 flows)", got)
	}

	// One store-backed session: every plan is cached from the second
	// audit on, and the coverage is otherwise unchanged.
	disk = open("session.store")
	defer disk.Close()
	cache = memo.New()
	cache.AttachDisk(disk)
	first = AuditSource(chain, Options{Cache: cache})
	second = AuditSource(chain, Options{Cache: cache})
	if n := cachedPlans(first); n != 0 {
		t.Errorf("store-backed session: first audit cached %d plans, want 0", n)
	}
	if n := cachedPlans(second); n != 16 {
		t.Errorf("store-backed session: second audit cached %d plans, want 16", n)
	}
	for i := range second.Coverage[0].Plans {
		second.Coverage[0].Plans[i].Cached = false
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("store-backed session: second audit differs beyond cached:\n%s\nfirst:\n%s",
			renderAudit(second), renderAudit(first))
	}

	// Eight concurrent audits on one session, each equal to a fresh
	// session's: run under -race, a write to a shared flow is a race.
	wide := benchgen.ChainedSource(6, 2)
	want := AuditSource(wide, Options{Cache: memo.New()})
	shared := memo.New()
	got := make([]*AuditResult, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = AuditSource(wide, Options{Cache: shared})
		}()
	}
	wg.Wait()
	for i, res := range got {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("concurrent audit %d differs from a fresh session's:\n%s\nwant:\n%s", i, renderAudit(res), renderAudit(want))
		}
	}
}

// TestEventCoverageFoldsOccurrences: SUSC017 and SUSC019 classify a
// client's events by folding the coverage rows of its audited plans, and
// look the witness occurrence up only when they report. The fold must
// say what the occurrences say: over every audit fixture and a world in
// which one plan fires an event both guarded and bare, another fires it
// bare under two active sets, and a policy guards it only sometimes, the
// fold's plan lists, guard union and witness equal a direct aggregation
// of the flows' occurrences.
func TestEventCoverageFoldsOccurrences(t *testing.T) {
	srcs := map[string]string{"mixed": `policy cap(n int) { states q0 qv; start q0; final qv; edge q0 -> qv on act(y) when y > n; }
policy noevil() { states q0 qv; start q0; final qv; edge q0 -> qv on evil(); }
instance lo = cap(n = 5);
instance hi = cap(n = 7);
instance psi = noevil();
service sg = enforce hi { act(1) } . Ping? . act(1) . Pong!;
service sb = enforce psi { act(1) } . Ping? . act(1) . Pong!;
service sh = enforce lo { act(1) . Ping? . act(1) . Pong! };
client c at l = open r1 { Ping! . Pong? };
`}
	paths, err := filepath.Glob(filepath.Join("testdata", "audit", "*.susc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[p] = string(src)
	}
	folded := 0
	for name, src := range srcs {
		f, issues, err := parser.ParseFileLenient(src)
		if err != nil {
			t.Fatal(err)
		}
		st := newPass(f, issues, Options{Cache: memo.New()}).auditData()
		ct := f.Table.Compiled()
		for ci := range st.clients {
			ca := &st.clients[ci]
			got, want := clientEventCoverage(ca), occurrenceCoverage(ct, ca)
			if len(got) != len(want) {
				t.Fatalf("%s, client %s: %d watched events folded, %d occur", name, ca.name, len(got), len(want))
			}
			for i, ec := range got {
				w := want[i]
				if ec.event != w.event || !reflect.DeepEqual(ec.guarded, w.guarded) ||
					!reflect.DeepEqual(ec.unguarded, w.unguarded) || !reflect.DeepEqual(ec.guards, w.guards) {
					t.Errorf("%s, client %s: folded %+v, occurrences say %+v", name, ca.name, *ec, w)
				}
				if len(ec.unguarded) > 0 && !reflect.DeepEqual(ec.witness(ct, ca), w.occ) {
					t.Errorf("%s, client %s, %s: witness %+v, want %+v", name, ca.name, ec.event, ec.witness(ct, ca), w.occ)
				}
				folded++
			}
		}
	}
	if folded < 6 {
		t.Fatalf("only %d events folded", folded)
	}
}

// occurrences is a watched event's coverage, aggregated occurrence by
// occurrence over a client's audited flows.
type occurrences struct {
	event              string
	guarded, unguarded []int
	guards             []string
	occ                verify.EventFlow
}

// occurrenceCoverage aggregates the watched events of a client's audited
// flows directly: a plan is unguarded for an event when some occurrence
// has no watching policy active, the guards are the watching policies
// active at any occurrence, and the witness is the first bare occurrence
// in the first unguarded plan.
func occurrenceCoverage(ct *policy.CompiledTable, ca *clientAudit) []occurrences {
	byEvent := map[string]*occurrences{}
	var order []string
	for pi, pa := range ca.plans {
		bare := map[string]*verify.EventFlow{}
		var seen []string
		for i, ef := range pa.flow.Events {
			if ct.WatchedMask(eventName(ef.Event)) == 0 {
				continue
			}
			o := byEvent[ef.Event]
			if o == nil {
				o = &occurrences{event: ef.Event}
				byEvent[ef.Event] = o
				order = append(order, ef.Event)
			}
			if !slices.Contains(seen, ef.Event) {
				seen = append(seen, ef.Event)
			}
			rel := relevantPolicies(ct, eventName(ef.Event), ef.Active)
			if len(rel) == 0 && bare[ef.Event] == nil {
				bare[ef.Event] = &pa.flow.Events[i]
			}
			o.guards = mergeSorted(o.guards, rel)
		}
		for _, ev := range seen {
			o := byEvent[ev]
			if occ := bare[ev]; occ != nil {
				if len(o.unguarded) == 0 {
					o.occ = *occ
				}
				o.unguarded = append(o.unguarded, pi)
			} else {
				o.guarded = append(o.guarded, pi)
			}
		}
	}
	sort.Strings(order)
	out := make([]occurrences, len(order))
	for i, ev := range order {
		out[i] = *byEvent[ev]
	}
	return out
}
