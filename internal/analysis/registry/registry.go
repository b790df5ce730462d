// Package registry binds the partlint analyzers to the packages they
// govern. It lives apart from the analyzer packages so that drivers
// (cmd/partlint, tests) get the full suite plus scope rules from one
// import, while each analyzer stays importable on its own.
//
// Scope rules are deliberately data, not code spread across drivers:
//
//   - hotpathalloc, callbackblock, xportgate run everywhere in the
//     module — annotations and registration shapes only occur where the
//     invariants apply, and xportgate must visit every package anyway to
//     propagate reachability facts.
//   - detertaint runs on the packages reachable from the simulator's
//     virtual clock: the engine strategies, the fabric, the models, the
//     transports whose event callbacks feed the engines, and the
//     measurement/report layers that must stay replayable.
//   - nopanic runs on the packages that adopted the typed-error
//     contract; the simulator itself still panics on internal scheduler
//     corruption by design.
package registry

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callbackblock"
	"repro/internal/analysis/detertaint"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/nopanic"
	"repro/internal/analysis/shardsafety"
	"repro/internal/analysis/waiverhygiene"
	"repro/internal/analysis/xportgate"
)

// Check pairs an analyzer with the import paths it applies to.
type Check struct {
	Analyzer *analysis.Analyzer
	// Applies reports whether the analyzer runs on the package. Drivers
	// still invoke xportgate's Run on out-of-scope packages for fact
	// propagation; Applies gates reporting scope only for the others.
	Applies func(importPath string) bool
}

// module-wide scope: every package in this module.
func allRepro(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// simReachable lists the packages whose behavior must be a pure function
// of the seed and the event order. The transport and measurement layers
// are in because their event callbacks feed the engines: the
// cross-engine completion bug lived in the ibv completion queue.
var simReachable = map[string]bool{
	"repro/internal/sim":    true,
	"repro/internal/fabric": true,
	"repro/internal/core":   true,
	"repro/internal/loggp":  true,
	"repro/internal/sweep":  true,
	"repro/internal/bench":  true,
	// trace generates synthetic arrival schedules consumed inside the
	// simulation; its output must replay from the seed alone.
	"repro/internal/trace":       true,
	"repro/internal/ibv":         true,
	"repro/internal/ucx":         true,
	"repro/internal/xport":       true,
	"repro/internal/xport/shm":   true,
	"repro/internal/netgauge":    true,
	"repro/internal/experiments": true,
	"repro/internal/coll":        true,
	"repro/internal/pt2pt":       true,
	"repro/internal/mpipcl":      true,
}

// typedError lists the packages under the typed-error contract
// (see internal/core/errors.go).
var typedError = map[string]bool{
	"repro/partib":          true,
	"repro/internal/core":   true,
	"repro/internal/pt2pt":  true,
	"repro/internal/mpipcl": true,
}

// Checks returns the full partlint suite with scope rules, in a stable
// order. waiverhygiene comes last and replays the others: it is built
// from the same Check entries, so its notion of "would this waiver's
// diagnostic fire" always matches the suite actually run.
func Checks() []Check {
	checks := []Check{
		{Analyzer: hotpathalloc.Analyzer, Applies: allRepro},
		{Analyzer: detertaint.Analyzer, Applies: func(p string) bool { return simReachable[p] }},
		{Analyzer: shardsafety.Analyzer, Applies: allRepro},
		{Analyzer: xportgate.Analyzer, Applies: allRepro},
		{Analyzer: nopanic.Analyzer, Applies: func(p string) bool { return typedError[p] }},
		{Analyzer: callbackblock.Analyzer, Applies: allRepro},
	}
	siblings := make([]waiverhygiene.Sibling, len(checks))
	for i, c := range checks {
		siblings[i] = waiverhygiene.Sibling{Analyzer: c.Analyzer, Applies: c.Applies}
	}
	return append(checks, Check{Analyzer: waiverhygiene.New(siblings), Applies: allRepro})
}
