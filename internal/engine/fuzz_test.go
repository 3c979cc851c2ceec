package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"susc/internal/budget"
	"susc/internal/engine"
	"susc/internal/parser"
)

// pipelineRun is one mode run of FuzzPipeline: what the CLI would print
// for `susc <mode> FILE -json [-client c]`, its error line included.
type pipelineRun struct {
	mode, client string
	stdout       []byte
	stderr       []byte
	exit         int
}

// runPipeline runs lint, audit and checkall, and plans and check for
// every client, through their modes with -json over one session; a
// positive maxStates bounds each run's budget.
func runPipeline(s *engine.Session, f *parser.File, src string, maxStates int64) []pipelineRun {
	var runs []pipelineRun
	for _, name := range []string{"lint", "audit", "checkall"} {
		runs = append(runs, pipelineRun{mode: name})
	}
	for _, c := range f.Clients {
		runs = append(runs, pipelineRun{mode: "plans", client: c.Name}, pipelineRun{mode: "check", client: c.Name})
	}
	for i := range runs {
		r := &runs[i]
		p := engine.NewParams()
		p.JSON, p.Client = true, r.client
		req := &engine.Request{File: "spec.susc", Src: src, Params: *p,
			Budget: budget.New(context.Background(), budget.Limits{MaxStates: maxStates})}
		var stdout, stderr bytes.Buffer
		err := engine.LookupMode(r.mode).Run(s, req, &engine.Output{Stdout: &stdout, Stderr: &stderr})
		if err != nil {
			fmt.Fprintln(&stderr, "susc:", err)
		}
		r.stdout, r.stderr, r.exit = stdout.Bytes(), stderr.Bytes(), engine.ExitCode(err)
	}
	return runs
}

// planRecords indexes the records of a batch `plans -json` document by
// plan, each compacted; nil when the run printed no document.
func planRecords(out []byte) map[string]string {
	var recs []json.RawMessage
	if json.Unmarshal(out, &recs) != nil {
		return nil
	}
	byPlan := map[string]string{}
	for _, rec := range recs {
		var e struct {
			Plan json.RawMessage `json:"plan"`
		}
		var b bytes.Buffer
		if json.Unmarshal(rec, &e) != nil || json.Compact(&b, rec) != nil {
			return nil
		}
		byPlan[string(e.Plan)] = b.String()
	}
	return byPlan
}

// FuzzPipeline runs every mode that reads the report tiers over one spec
// three times: an oracle on a memory-only session with no budget; a run
// over a fresh store under a state budget cut at maxStates+1; and a run
// with no budget over the reopened store. Whatever the cut run filed,
// the warm run must print the oracle's bytes — stdout, stderr and exit
// code, up to the coverage records' "cached" flags, which only a
// store-backed session sets — so no verdict a budget cut short reaches
// the store; and every plan verdict the cut run did decide must be the
// oracle's.
func FuzzPipeline(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{
		"../../testdata/*.susc",
		"../../examples/specs/*.susc",
		"../lint/testdata/*.susc",
		"../lint/testdata/audit/*.susc",
		"../lint/testdata/semantic/*.susc",
		"../benchgen/testdata/chained-clients-6-4-3.susc",
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed specs match %s", pattern)
		}
		seeds = append(seeds, paths...)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []uint16{5, 50, 500} {
			f.Add(string(src), cut)
		}
	}
	f.Fuzz(func(t *testing.T, src string, maxStates uint16) {
		pf, err := parser.ParseFile(src)
		if err != nil || len(pf.Clients) > 4 {
			return
		}
		mem, err := engine.Open("")
		if err != nil {
			t.Fatal(err)
		}
		oracle := runPipeline(mem, pf, src, 0)

		dir := t.TempDir()
		s, err := engine.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cut := runPipeline(s, pf, src, int64(maxStates)+1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = engine.Open(dir); err != nil {
			t.Fatal(err)
		}
		warm := runPipeline(s, pf, src, 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		for i, want := range oracle {
			got := warm[i]
			if got.mode == "audit" {
				got.stdout = bytes.ReplaceAll(got.stdout, []byte(`,"cached":true`), nil)
			}
			if !bytes.Equal(got.stdout, want.stdout) || !bytes.Equal(got.stderr, want.stderr) || got.exit != want.exit {
				t.Fatalf("%s %s over the warm store differs from the oracle:\nwarm   exit %d\n%s%s\noracle exit %d\n%s%s",
					want.mode, want.client, got.exit, got.stdout, got.stderr, want.exit, want.stdout, want.stderr)
			}
			if want.mode != "plans" {
				continue
			}
			wantRecs := planRecords(want.stdout)
			for plan, rec := range planRecords(cut[i].stdout) {
				var e struct {
					Report struct {
						Verdict string `json:"verdict"`
					} `json:"report"`
				}
				if err := json.Unmarshal([]byte(rec), &e); err != nil {
					t.Fatal(err)
				}
				if e.Report.Verdict != "unknown" && rec != wantRecs[plan] {
					t.Fatalf("client %s: the cut run decided plan %s as\n%s\nthe oracle as\n%s", want.client, plan, rec, wantRecs[plan])
				}
			}
		}
	})
}
