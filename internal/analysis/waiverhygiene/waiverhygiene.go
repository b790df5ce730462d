// Package waiverhygiene keeps the `//partlint:allow` waiver population
// honest. A waiver is a debt note: it says "this diagnostic is accepted
// here, for this reason". When the code under it changes — the panic
// becomes an error return, the callback stops blocking, the call chain
// is broken — the note stays behind and silently suppresses whatever
// diagnostic lands on that line next. This analyzer replays the sibling
// suite over the package and flags every waiver that no longer matches
// a firing diagnostic, plus waivers naming analyzers that do not exist
// (usually typos, which suppress nothing and mislead readers).
//
// The analyzer is constructed with New rather than a package-level
// variable: it needs the sibling analyzers (and their package scopes) to
// replay, and taking them as a parameter keeps this package free of
// imports of its siblings — the registry, which already knows the suite,
// wires it last.
package waiverhygiene

import (
	"fmt"

	"repro/internal/analysis"
)

// Sibling is one replayed analyzer with its package scope.
type Sibling struct {
	Analyzer *analysis.Analyzer
	// Applies reports whether the analyzer runs on the package; nil means
	// everywhere. A waiver for an out-of-scope analyzer is stale — its
	// diagnostic cannot fire where the analyzer never runs.
	Applies func(importPath string) bool
}

// New builds the waiverhygiene analyzer over the given sibling suite.
func New(siblings []Sibling) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "waiverhygiene",
		Doc: "flag //partlint:allow waivers whose diagnostic no longer fires (stale " +
			"suppressions accept future, unrelated findings sight unseen) and waivers " +
			"naming unknown analyzers (typos that never suppressed anything)",
	}
	a.Run = func(pass *analysis.Pass) error { return run(pass, siblings) }
	return a
}

func run(pass *analysis.Pass, siblings []Sibling) error {
	waivers := pass.Waivers()
	if len(waivers) == 0 {
		return nil // fast path: most packages carry no waivers
	}
	known := map[string]bool{"all": true, "waiverhygiene": true}
	for _, s := range siblings {
		known[s.Analyzer.Name] = true
	}

	// Replay the siblings with their real dependency facts and collect the
	// waived findings: (file, line, analyzer) triples a waiver can claim.
	type hit struct {
		file     string
		line     int
		analyzer string
	}
	covered := map[hit]bool{}
	for _, s := range siblings {
		if s.Applies != nil && !s.Applies(pass.ImportPath) {
			continue
		}
		var depFacts map[string]analysis.ImportFacts
		if pass.AllDepFacts != nil {
			depFacts = pass.AllDepFacts[s.Analyzer.Name]
		}
		sub := analysis.NewPass(s.Analyzer, pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, pass.ImportPath, depFacts)
		sub.AllDepFacts = pass.AllDepFacts
		if err := s.Analyzer.Run(sub); err != nil {
			return fmt.Errorf("waiverhygiene: replaying %s: %w", s.Analyzer.Name, err)
		}
		for _, d := range sub.AllDiagnostics() {
			covered[hit{d.Pos.Filename, d.Pos.Line, d.Analyzer}] = true
		}
	}

	// A waiver on line L suppresses findings on L and L+1 (trailing
	// comment or line-above placement); it is live if any replayed
	// diagnostic of its analyzer landed there.
	for _, w := range waivers {
		switch {
		case w.Analyzer == "":
			pass.ReportfUnwaivable(w.Pos, "waiver names no analyzer: write //partlint:allow <analyzer> <rationale>")
		case !known[w.Analyzer]:
			pass.ReportfUnwaivable(w.Pos, "waiver names unknown analyzer %q: it suppresses nothing (typo?)", w.Analyzer)
		case w.Analyzer == "waiverhygiene":
			// Self-waivers would let stale notes hide themselves.
			pass.ReportfUnwaivable(w.Pos, "waiverhygiene findings cannot be waived: delete the stale waiver instead")
		default:
			live := false
			for line := w.Line; line <= w.Line+1 && !live; line++ {
				if w.Analyzer == "all" {
					for _, s := range siblings {
						if covered[hit{w.File, line, s.Analyzer.Name}] {
							live = true
							break
						}
					}
				} else {
					live = covered[hit{w.File, line, w.Analyzer}]
				}
			}
			if !live {
				pass.ReportfUnwaivable(w.Pos, "stale waiver: no %s diagnostic fires on this line anymore; delete it", w.Analyzer)
			}
		}
	}
	return nil
}
