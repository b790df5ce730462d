package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/tuning"
)

// compareStrategies runs the offline brute-force tuning search (the oracle
// the paper's Figure 8 builds) and then replays every table point under
// the table-driven static design and under the online adaptive strategy,
// reporting the latency ratio per point. A ratio near 1.0 means the online
// strategy recovers the offline oracle's design without the search; below
// 1.0 it found something the static table cannot express.
//
// StrategyAdaptive is deliberately not a candidate of the search: the
// offline sweep enumerates fixed (transport, QPs) designs, and a strategy
// that re-plans from observed history has no single design to record.
// Comparing after the fact keeps the table's meaning independent of the
// arrival pattern the search happened to run.
func compareStrategies(cfg Config) plan {
	const parts = 32
	sizes := sizesPow2(64<<10, 4<<20, parts)
	warmup, iters := 16, 24 // the warm-up covers the adaptive window plus dwell
	if cfg.Quick {
		sizes = []int{128 << 10, 512 << 10}
		warmup, iters = 8, 8
	}
	searchWarmup, searchIters := cfg.rounds(1, 3, 3, 10)
	return comparePlan(tuning.SearchConfig{
		UserParts: []int{parts},
		Sizes:     sizes,
		Warmup:    searchWarmup,
		Iters:     searchIters,
	}, warmup, iters)
}

// comparePlan replays every point search tunes, one partition count at
// sizes it divides, under the table it finds and under StrategyAdaptive,
// with no compute and immediate arrivals, for warmup + iters rounds.
func comparePlan(search tuning.SearchConfig, warmup, iters int) plan {
	parts := search.UserParts[0]
	table := core.NewTuningTable()
	p := sizeTable(fmt.Sprintf("Online adaptive vs offline tuning-table oracle, %d user partitions", parts),
		[]string{"tuned (offline oracle)", "adaptive (online)", "ratio", "switches"}, search.Sizes,
		[]core.Options{{Strategy: core.StrategyTuningTable, Table: table}, {Strategy: core.StrategyAdaptive}},
		func(s int, opts core.Options) bench.GridConfig {
			return bench.GridConfig{Pattern: bench.P2P, Threads: parts, Bytes: s, Warmup: warmup, Iters: iters, Opts: opts}
		},
		func(block []bench.GridResult) []any {
			tuned, adaptive := block[0].MeanIterTime(), block[1].MeanIterTime()
			ratio, switches := 0.0, 0
			if tuned > 0 {
				ratio = float64(adaptive.Nanoseconds()) / float64(tuned.Nanoseconds())
			}
			if st := block[1].Adaptive[0][0]; st != nil {
				switches = len(st.Switches) - 1
			}
			return []any{tuned, adaptive, ratio, switches}
		})
	p.search, p.table = &search, table
	return p
}
