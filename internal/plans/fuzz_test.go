package plans_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"susc/internal/budget"
	"susc/internal/parser"
	"susc/internal/plans"
)

// FuzzParsedWorldSweeps keeps the parser's rule and the engine's guard
// one rule: for any input ParseFile accepts, no client's plan sweep
// refuses the world for opening one request identifier with two framing
// policies or bodies. The guard runs before enumeration, so each sweep
// stops at 64 plans and a small state budget.
func FuzzParsedWorldSweeps(f *testing.F) {
	for _, pattern := range []string{"../../testdata/*.susc", "../benchgen/testdata/*.susc"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Two services opening r9 with different bodies, reached by one
	// request (r1) or by two (r1, r2): the parser refuses both.
	f.Add(`service a = X? . open r9 { P! } . Ka!;
service b = X? . open r9 { Q! } . Kb!;
service c = P?;
service d = Q?;
client cl at cl = open r1 { X! . (Ka? + Kb?) };`)
	f.Add(`service a = X? . open r9 { Q! } . Ka!;
service b = Y? . open r9 { Q! (+) Z! } . Kb!;
service c = Q?;
client cl at cl plan { r1 -> a, r2 -> b, r9 -> c } = open r1 { X! . Ka? } . open r2 { Y! . Kb? };`)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := parser.ParseFile(src)
		if err != nil {
			return
		}
		for _, c := range file.Clients {
			_, err := plans.AssessAll(file.Repo, file.Table, c.Loc, c.Expr, plans.Options{
				PruneNonCompliant: true,
				MaxPlans:          64,
				Budget:            budget.New(context.Background(), budget.Limits{MaxStates: 2000, MaxEdges: 8000}),
			})
			if errors.Is(err, plans.ErrRequestClash) {
				t.Fatalf("client %s: the parser accepts a world the engine refuses: %v", c.Name, err)
			}
		}
	})
}
