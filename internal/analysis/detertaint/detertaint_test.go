package detertaint_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detertaint"
)

// TestSimDeterminism covers the lexical bans: math/rand imports,
// wall-clock calls, and calls, outer assignments and non-constant returns
// made while ranging over a map, on the adaptive-switcher, ECMP-route,
// shard-barrier and escaping-fold shapes.
func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "a")
}

// TestDetertaintBasic covers wall-clock and math/rand values that reach
// scheduling and map-ordered emission through helper chains: each is
// reported at its source.
func TestDetertaintBasic(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "taintbasic")
}

// TestDetertaintIngress covers the PR-8 ingress-ordering shape: grants
// emitted while ranging a map, sink two hops down.
func TestDetertaintIngress(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "ingress")
}

// TestDetertaintFacts covers a defect whose source is in a dependency:
// the bans report it in the dependency, and the caller stays clean.
func TestDetertaintFacts(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "taintuse", "taintdep")
}
