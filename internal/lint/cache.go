package lint

import (
	"encoding/json"
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

// persistable reports whether a diagnostic list may be written back:
// SUSC016 findings describe *this run* — an isolated analyzer panic or a
// budget cutoff — not the file's content, so lists carrying one are never
// persisted (the disk analogue of the never-cache-Unknown rule).
func persistable(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Code == CodeInternalError {
			return false
		}
	}
	return true
}

// SourceCached is Source with a persistent tier: probe disk under the
// file's content key, decode a hit, and otherwise lint and write the
// findings back. With a nil store it is exactly Source.
func SourceCached(src string, disk *store.Store, opts Options) []Diagnostic {
	return cached(src, disk, opts, func() []Diagnostic { return Source(src, opts) })
}

// RunCached is Run with a persistent tier, for callers that already hold
// the parsed file but know its source text — the key digests the text, so
// it is interchangeable with SourceCached on the same file.
func RunCached(f *parser.File, issues []parser.Issue, src string, disk *store.Store, opts Options) []Diagnostic {
	return cached(src, disk, opts, func() []Diagnostic { return Run(f, issues, opts) })
}

func cached(src string, disk *store.Store, opts Options, compute func() []Diagnostic) []Diagnostic {
	if disk == nil {
		return compute()
	}
	sum := sourceKey(src, opts)
	if raw, ok := disk.Get(store.KindLint, sum); ok {
		var diags []Diagnostic
		if err := json.Unmarshal(raw, &diags); err == nil {
			return diags
		}
	}
	diags := compute()
	if persistable(diags) {
		if enc, err := json.Marshal(diags); err == nil {
			disk.Put(store.KindLint, sum, enc)
		}
	}
	return diags
}
