// Package repro's root benchmarks regenerate every table and figure of the
// paper, one testing.B benchmark per exhibit (fig3, table1, fig6 to fig14)
// plus one for ablation-model:
//
//	go test -bench=. -benchmem
//
// Each benchmark runs the corresponding experiment driver in quick mode
// (reduced sweep) so the whole suite completes in minutes. The other
// registry exhibits (halo, ablation-adaptive, compare-strategies) and the
// full-scale sweeps behind EXPERIMENTS.md run through cmd/partbench. Key scalar
// outcomes are reported as custom benchmark metrics so regressions in the
// *shape* of a result (a speedup dropping below 1, a perceived bandwidth
// falling under the link rate) are visible in benchmark output.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// runExperiment executes one driver per benchmark iteration and returns
// the last run's tables.
func runExperiment(b *testing.B, name string) []*stats.Table {
	b.Helper()
	run, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = run(experiments.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// lastCell extracts the numeric value of the last column of the last row
// of a rendered table (the most aggressive configuration of the sweep).
func lastCell(b *testing.B, tb *stats.Table) float64 {
	b.Helper()
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	fields := strings.Split(lines[len(lines)-1], ",")
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		b.Fatalf("last cell %q not numeric: %v", fields[len(fields)-1], err)
	}
	return v
}

func BenchmarkFig3PLogGPModel(b *testing.B) {
	runExperiment(b, "fig3")
}

func BenchmarkTable1OptimalTransport(b *testing.B) {
	tables := runExperiment(b, "table1")
	b.ReportMetric(lastCell(b, tables[0]), "max-transport-partitions")
}

func BenchmarkFig6TransportPartitions(b *testing.B) {
	tables := runExperiment(b, "fig6")
	b.ReportMetric(lastCell(b, tables[0]), "speedup-largest-size")
}

func BenchmarkFig7QueuePairs(b *testing.B) {
	tables := runExperiment(b, "fig7")
	b.ReportMetric(lastCell(b, tables[0]), "speedup-largest-size")
}

func BenchmarkFig8Aggregators(b *testing.B) {
	tables := runExperiment(b, "fig8")
	b.ReportMetric(lastCell(b, tables[len(tables)-1]), "ploggp-speedup")
}

func BenchmarkFig9PerceivedBandwidth(b *testing.B) {
	tables := runExperiment(b, "fig9")
	b.ReportMetric(lastCell(b, tables[len(tables)-1]), "timer-GBps")
}

func BenchmarkFig10ArrivalProfile(b *testing.B) {
	runExperiment(b, "fig10")
}

func BenchmarkFig11ArrivalProfileLarge(b *testing.B) {
	runExperiment(b, "fig11")
}

func BenchmarkFig12MinDelta(b *testing.B) {
	runExperiment(b, "fig12")
}

func BenchmarkFig13DeltaWindow(b *testing.B) {
	tables := runExperiment(b, "fig13")
	b.ReportMetric(lastCell(b, tables[0]), "bw-delta100us-GBps")
}

func BenchmarkFig14Sweep(b *testing.B) {
	tables := runExperiment(b, "fig14")
	b.ReportMetric(lastCell(b, tables[len(tables)-1]), "timer-speedup")
}

func BenchmarkAblationModel(b *testing.B) {
	runExperiment(b, "ablation-model")
}
