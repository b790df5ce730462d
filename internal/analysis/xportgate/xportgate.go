// Package xportgate enforces the transport SPI boundary with a real
// import-graph check. The strategy code in internal/core, its clients, and
// the UCX-like middleware in internal/ucx must program against the
// provider-neutral internal/xport SPI only; reaching for a concrete
// backend (the verbs emulation in internal/ibv or a concrete xport backend
// package) reintroduces the provider coupling the SPI removed. A grep over
// import blocks misses aliased imports and — worse — transitive leaks
// through a helper package; this analyzer resolves real import paths and
// propagates reachability facts across packages, stopping at the
// sanctioned boundary packages that are allowed to touch backends
// (internal/mpi builds the providers; internal/cluster owns the hardware
// model).
package xportgate

import (
	"fmt"
	"go/ast"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer reports gated packages that import a forbidden backend,
// directly or transitively.
var Analyzer = &analysis.Analyzer{
	Name: "xportgate",
	Doc: "forbid direct and transitive imports of concrete transport backends " +
		"(internal/ibv, internal/xport/verbs, internal/xport/shm) " +
		"from SPI-neutral packages (core, pt2pt, mpipcl, bench, partib, ucx)",
	Run: run,
}

// forbidden are the concrete backend packages gated code must not reach.
var forbidden = map[string]bool{
	"repro/internal/ibv":         true,
	"repro/internal/xport/verbs": true,
	"repro/internal/xport/shm":   true,
}

// boundary packages may legitimately touch backends (provider
// construction and the hardware model); reachability does not propagate
// through them.
var boundary = map[string]bool{
	"repro/internal/mpi":     true,
	"repro/internal/cluster": true,
}

// gated packages must stay backend-free.
var gated = map[string]bool{
	"repro/internal/core":   true,
	"repro/internal/pt2pt":  true,
	"repro/internal/mpipcl": true,
	"repro/internal/bench":  true,
	"repro/partib":          true,
	"repro/internal/ucx":    true,
}

func run(pass *analysis.Pass) error {
	// Direct imports from non-test files, with one representative
	// ImportSpec position each for reporting.
	specs := map[string]*ast.ImportSpec{}
	var direct []string
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if _, seen := specs[path]; !seen {
				specs[path] = imp
				direct = append(direct, path)
			}
		}
	}

	facts := ComputeFacts(direct, func(dep string) (analysis.ImportFacts, bool) {
		f, ok := pass.DepFacts[dep]
		return f, ok
	})
	pass.ExportFacts = &facts

	if !gated[pass.ImportPath] {
		return nil
	}
	targets := make([]string, 0, len(facts.Reaches))
	for f := range facts.Reaches {
		targets = append(targets, f)
	}
	sort.Strings(targets)
	for _, f := range targets {
		chain := facts.Reaches[f]
		spec := specs[chain[0]]
		if len(chain) == 1 {
			pass.Reportf(spec.Pos(), "%s imports concrete backend %s; program against the internal/xport SPI instead", pass.ImportPath, f)
			continue
		}
		pass.Reportf(spec.Pos(), "%s reaches concrete backend %s via %s; program against the internal/xport SPI instead",
			pass.ImportPath, f, strings.Join(chain, " -> "))
	}
	return nil
}

// ComputeFacts folds the direct import list and the dependencies' facts
// into this package's reachability facts. A direct forbidden import
// yields a single-element chain; a dependency's chain is extended with
// the dependency itself, unless the dependency is a sanctioned boundary
// package (traversal stops there) or lies outside the repository.
// Inductively, each package's facts cover its full transitive closure,
// so drivers only ever need direct dependencies' facts.
func ComputeFacts(direct []string, dep func(string) (analysis.ImportFacts, bool)) analysis.ImportFacts {
	out := analysis.ImportFacts{}
	add := func(target string, chain []string) {
		if out.Reaches == nil {
			out.Reaches = map[string][]string{}
		}
		// Keep the shortest (then lexically first) chain so reports are
		// stable regardless of file order.
		if prev, ok := out.Reaches[target]; ok {
			if len(prev) < len(chain) || (len(prev) == len(chain) && fmt.Sprint(prev) <= fmt.Sprint(chain)) {
				return
			}
		}
		out.Reaches[target] = chain
	}
	for _, d := range direct {
		if forbidden[d] {
			add(d, []string{d})
			continue
		}
		if boundary[d] || !strings.HasPrefix(d, "repro/") {
			continue
		}
		if df, ok := dep(d); ok {
			for target, chain := range df.Reaches {
				extended := append([]string{d}, chain...)
				add(target, extended)
			}
		}
	}
	return out
}
