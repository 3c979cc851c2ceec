package lint

import (
	"encoding/json"
	"slices"
	"strings"

	"susc/internal/hash"
	"susc/internal/parser"
	"susc/internal/store"
)

// This file is lint's persistent tier. Lint findings are cached at
// whole-file granularity: the content key digests the source text plus
// the analysis configuration (analyzer set and severity floor), so an
// unchanged file replays its findings from disk and any edit — or a
// different `-severity` — recomputes the whole file. Finer granularity
// would save little: on ChainedClients(6,4,18) (42 declarations, 18
// clients) a whole run of every analyzer costs 1.7–2.0 ms and 0.45 MB
// (BenchmarkLintSemanticClients, shared 2-core x86-64 VM). SUSC013 takes
// 0.6–0.8 ms of it (per-analyzer Stats, medians of 41 runs) to refuse
// 18 plan families by counting them, and each family contains every
// service, so a one-service edit reaches all of them under any
// per-scope key; SUSC005 takes 0.4–0.5 ms and SUSC006 0.15–0.2 ms, and
// the semantic analyzers reuse the compliance disk tier underneath.

// sourceKey is the content hash of one lint run's inputs.
func sourceKey(src string, opts Options) hash.Sum {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Analyzers()
	}
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return hash.File([]byte(src),
		"analyzers="+strings.Join(names, ","),
		"min-severity="+opts.MinSeverity.String())
}

// findingsCodec is the store form of one run's findings: their JSON. A
// list carrying SUSC016 — an isolated analyzer panic or a budget cutoff
// — describes this run, not the file's content, and is not persistable
// (the disk analogue of the never-cache-Unknown rule).
var findingsCodec = store.Codec[[]Diagnostic]{
	Kind:   store.KindLint,
	Encode: func(diags []Diagnostic) ([]byte, error) { return json.Marshal(diags) },
	Decode: func(b []byte) ([]Diagnostic, error) {
		var diags []Diagnostic
		err := json.Unmarshal(b, &diags)
		return diags, err
	},
	Persistable: func(diags []Diagnostic) bool {
		return !slices.ContainsFunc(diags, func(d Diagnostic) bool { return d.Code == CodeInternalError })
	},
}

// SourceCached is Source with a persistent tier: the findings filed
// under the file's content key, else Source's, written back. With a nil
// store it is exactly Source.
func SourceCached(src string, disk *store.Store, opts Options) []Diagnostic {
	return cached(src, disk, opts, func() []Diagnostic { return Source(src, opts) })
}

// RunCached is Run with a persistent tier, for callers that already hold
// the parsed file but know its source text — the key digests the text, so
// it is interchangeable with SourceCached on the same file.
func RunCached(f *parser.File, issues []parser.Issue, src string, disk *store.Store, opts Options) []Diagnostic {
	return cached(src, disk, opts, func() []Diagnostic { return Run(f, issues, opts) })
}

// cached reads the findings through the store (store.Fill): concurrent
// identical runs over one store lint once. A failed write-back loses
// only the write: the findings stand. A caller that queued behind a
// flight whose leader panicked got no findings from it, and lints itself.
func cached(src string, disk *store.Store, opts Options, compute func() []Diagnostic) []Diagnostic {
	linted := false
	diags, _, err := store.Fill(disk, findingsCodec, func() hash.Sum { return sourceKey(src, opts) },
		func() ([]Diagnostic, error) { linted = true; return compute(), nil })
	if err != nil && !linted {
		return compute()
	}
	return diags
}
