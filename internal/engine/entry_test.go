package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"susc/internal/benchgen"
	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/parser"
	"susc/internal/plans"
	"susc/internal/verify"
)

// recordEntries returns plan entries over adversarial plans and reports:
// hotel.susc's swept plans with their reports (read back from their store
// encoding, the trace as labels, as FuzzReportJSON seeds its corpus),
// plans whose names need escaping ('<', '&', '"', '\\', U+2028, invalid
// UTF-8, control bytes), FuzzReportJSON's adversarial Unknown report and
// no report at all.
func recordEntries(t testing.TB) []PlanEntry {
	src, err := os.ReadFile("../../testdata/hotel.susc")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var entries []PlanEntry
	var reports []*verify.Report
	for _, c := range f.Clients {
		as, err := plans.AssessAll(f.Repo, f.Table, c.Loc, c.Expr, plans.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			enc, err := verify.EncodeReport(a.Report)
			if err != nil {
				t.Fatal(err)
			}
			r, err := verify.DecodeReport(enc)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, PlanEntry{Plan: a.Plan, Report: a.Report}, PlanEntry{Plan: a.Plan, Report: r})
			reports = append(reports, r)
		}
	}
	reports = append(reports, &verify.Report{Verdict: verify.Unknown, States: -3, Frontier: 7,
		Policy: "<p>&", Request: `r"1`, Witness: `a\b`, TraceLabels: []string{" ", "\xff\x00"},
		StuckTree: "\t\u2028", Reason: "é\u2029"}, nil)

	parts := []string{"r", "s", "1", "<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\xff", "\xc3", "é", "\x00", "\n", ",", "{"}
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(parts[rng.Intn(len(parts))])
		}
		return b.String()
	}
	for trial := 0; trial < 500; trial++ {
		m := network.Plan{}
		for n := rng.Intn(7); n > 0; n-- {
			m[hexpr.RequestID(name())] = hexpr.Location(name())
		}
		entries = append(entries, PlanEntry{Plan: plans.PlanOf(m), Report: reports[trial%len(reports)]})
	}
	return entries
}

// TestPlanRecordBytes: a PlanEntry record written straight from its
// AppendJSON bytes (Output.plan, as `susc plans -json -stream` writes
// it) is what json.Encoder.Encode writes for it, line for line, through
// one reused buffer.
func TestPlanRecordBytes(t *testing.T) {
	var got, want bytes.Buffer
	out := &Output{Stdout: &got}
	enc := json.NewEncoder(&want)
	for i, e := range recordEntries(t) {
		if err := out.plan(e); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("record %d (plan %s) is\n%q\njson.Encoder.Encode writes\n%q", i, e.Plan, got.Bytes(), want.Bytes())
		}
		got.Reset()
		want.Reset()
	}
}

// BenchmarkPlanRecords writes Chained(12,2)'s 4096 plan records to
// io.Discard as `susc plans -json -stream` does (Output.plan), and through
// json.Encoder.Encode, the record path before the direct append. The
// sweep is outside the timer.
func BenchmarkPlanRecords(b *testing.B) {
	w := benchgen.Chained(12, 2)
	as, err := plans.AssessAll(w.Repo, w.Table, w.Loc, w.Client, plans.Options{PruneNonCompliant: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		out := &Output{Stdout: io.Discard}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, a := range as {
				if err := out.plan(ToPlanEntry(a)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encoder", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, a := range as {
				if err := enc.Encode(ToPlanEntry(a)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
