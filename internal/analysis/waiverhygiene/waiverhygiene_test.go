package waiverhygiene_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/nopanic"
	"repro/internal/analysis/waiverhygiene"
)

func TestWaiverFix(t *testing.T) {
	a := waiverhygiene.New([]waiverhygiene.Sibling{{Analyzer: nopanic.Analyzer}})
	analysistest.Run(t, a, "waiverfix")
}
