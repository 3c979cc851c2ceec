package hash_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"susc/internal/hash"
	"susc/internal/parser"
	"susc/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the golden content-hash table")

// TestGoldenContentHashes pins the content hashes of every checked-in
// specification: file keys, per-service expression digests, per-policy
// digests and per-client plan-report keys. These hashes ARE the persistent
// store's addressing scheme — if any line changes without a deliberate
// serialisation change (and an EngineVersion bump when verdict semantics
// move), previously persisted verdicts would silently stop being found, or
// worse, stale ones found under a new meaning. Run with -update to accept
// an intentional change.
func TestGoldenContentHashes(t *testing.T) {
	specs := []string{
		"../../testdata/hotel.susc",
		"../../examples/specs/booking.susc",
		"../../examples/specs/quickstart.susc",
	}
	var b strings.Builder
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		fmt.Fprintf(&b, "%s file %s\n", name, hash.File(src))
		for _, decl := range f.InstanceOrder {
			in, err := f.Table.Get(decl.ID)
			if err != nil {
				t.Fatalf("%s: instance %s: %v", path, decl.Alias, err)
			}
			fmt.Fprintf(&b, "%s policy %s %s\n", name, decl.Alias, hash.Policy(in))
		}
		for _, loc := range f.ServiceOrder {
			fmt.Fprintf(&b, "%s service %s %s\n", name, loc, hash.Expr(f.Repo[loc]))
		}
		for _, c := range f.Clients {
			fmt.Fprintf(&b, "%s client %s expr %s\n", name, c.Name, hash.Expr(c.Expr))
			sum := verify.PlanKey(f.Repo, f.Table, c.Loc, c.Expr, c.Plan, nil)
			fmt.Fprintf(&b, "%s client %s plankey %s\n", name, c.Name, sum)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "specs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/hash -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("content hashes diverged from %s:\n--- got ---\n%s--- want ---\n%s"+
			"(an intentional serialisation change needs -update AND an EngineVersion bump "+
			"when verdict semantics moved)", golden, got, want)
	}
}
