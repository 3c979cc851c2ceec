package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"susc/internal/engine"
	"susc/internal/network"
	"susc/internal/plans"
	"susc/internal/verify"
)

// TestStreamRecordBytes: a served stream writes a plan record straight
// from its AppendJSON bytes and every other line through its encoder, and
// both are what json.Encoder.Encode writes for them.
func TestStreamRecordBytes(t *testing.T) {
	records := []any{
		engine.PlanEntry{Plan: plans.PlanOf(network.Plan{"r<1": "s& ", "r\xff": "\x00"}),
			Report: &verify.Report{Verdict: verify.SecurityViolation, Policy: "<p>", TraceLabels: []string{"\xc3"}, States: 4}},
		engine.LintEntry{File: "a<b>.susc"},
		engine.PlanEntry{Plan: plans.PlanOf(network.Plan{"r1": "s1"})},
		doneLine{Susc: "done", Records: 2},
		engine.PlanEntry{},
	}
	rec := httptest.NewRecorder()
	st := newStream(rec)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, v := range records {
		if err := st.record(v); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("stream wrote\n%q\njson.Encoder.Encode writes\n%q", got, want.String())
	}
	if st.records != len(records) {
		t.Fatalf("stream counted %d records, want %d", st.records, len(records))
	}
}
