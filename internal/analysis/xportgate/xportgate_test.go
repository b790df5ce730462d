package xportgate_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/xportgate"
)

func TestXportGate(t *testing.T) {
	analysistest.Run(t, xportgate.Analyzer, "repro/internal/core", "repro/internal/pt2pt", "repro/internal/ucx")
}
