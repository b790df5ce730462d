package detertaint_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detertaint"
)

// TestSimDeterminism covers the lexical bans: math/rand imports,
// wall-clock calls, and calls made while ranging over a map, on the
// adaptive-switcher, ECMP-route and shard-barrier shapes.
func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "a")
}

// TestDetertaintBasic covers sources, sanitizers, emission sinks, and
// local summary chains.
func TestDetertaintBasic(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "taintbasic")
}

// TestDetertaintCrossEngine covers the PR-6 completion-bug shape: one
// engine's clock scheduled on another engine.
func TestDetertaintCrossEngine(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "crossengine")
}

// TestDetertaintIngress covers the PR-8 ingress-ordering shape: grants
// emitted while ranging a map, sink two hops down.
func TestDetertaintIngress(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "ingress")
}

// TestDetertaintFacts covers cross-package Taints/Sinks facts.
func TestDetertaintFacts(t *testing.T) {
	analysistest.Run(t, detertaint.Analyzer, "taintuse")
}
