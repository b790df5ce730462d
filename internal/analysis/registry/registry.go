// Package registry binds the partlint analyzers to the packages they
// govern. It lives apart from the analyzer packages so that drivers
// (cmd/partlint, tests) get the full suite plus scope rules from one
// import, while each analyzer stays importable on its own.
//
// Scope rules are deliberately data, not code spread across drivers:
//
//   - shardsafety runs everywhere in the module — its annotations only
//     occur where the invariants apply.
//   - detertaint runs on the packages reachable from the simulator's
//     virtual clock: the engine strategies, the fabric, the models, the
//     transports whose event callbacks feed the engines, the rank
//     progress engine that drains their completions, and the
//     measurement/report layers that must stay replayable — plus every
//     in-module package those import, so no sim-reachable code escapes.
//   - nopanic runs on the packages that adopted the typed-error
//     contract; the simulator itself still panics on internal scheduler
//     corruption by design.
package registry

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detertaint"
	"repro/internal/analysis/nopanic"
	"repro/internal/analysis/shardsafety"
)

// Check pairs an analyzer with the import paths it applies to.
type Check struct {
	Analyzer *analysis.Analyzer
	// Applies reports whether the analyzer runs on the package.
	Applies func(importPath string) bool
}

// module-wide scope: every package in this module.
func allRepro(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// simReachable lists the packages whose behavior must be a pure function
// of the seed and the event order. The transport and measurement layers
// are in because their event callbacks feed the engines: the
// cross-engine completion bug lived in the ibv completion queue, and mpi
// drains those queues into the modules' handlers. The set is closed under
// in-module imports: cluster, ploggp, stats and tuning are in because
// scoped packages import them.
var simReachable = map[string]bool{
	"repro/internal/sim":     true,
	"repro/internal/fabric":  true,
	"repro/internal/core":    true,
	"repro/internal/loggp":   true,
	"repro/internal/sweep":   true,
	"repro/internal/bench":   true,
	"repro/internal/cluster": true,
	"repro/internal/ploggp":  true,
	"repro/internal/stats":   true,
	"repro/internal/tuning":  true,
	// trace generates synthetic arrival schedules consumed inside the
	// simulation; its output must replay from the seed alone.
	"repro/internal/trace":       true,
	"repro/internal/ibv":         true,
	"repro/internal/mpi":         true,
	"repro/internal/ucx":         true,
	"repro/internal/netgauge":    true,
	"repro/internal/experiments": true,
}

// typedError lists the packages under the typed-error contract
// (see internal/core/errors.go).
var typedError = map[string]bool{
	"repro/partib":        true,
	"repro/internal/core": true,
}

// Checks returns the full partlint suite with scope rules, in a stable
// order.
func Checks() []Check {
	return []Check{
		{Analyzer: detertaint.Analyzer, Applies: func(p string) bool { return simReachable[p] }},
		{Analyzer: shardsafety.Analyzer, Applies: allRepro},
		{Analyzer: nopanic.Analyzer, Applies: func(p string) bool { return typedError[p] }},
	}
}
