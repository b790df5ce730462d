package tuning

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sweep"
)

// StrategyAdaptive is deliberately NOT a candidate in Search: the offline
// sweep enumerates fixed (transport, QPs) designs, and a strategy that
// re-plans from observed history has no single design to record — folding
// it in would make the table's meaning depend on the arrival pattern the
// search happened to run. Instead the adaptive strategy is compared
// against the tuned table after the fact: CompareStrategies replays every
// table point under both and reports the ratio, which is how the adaptive
// design earns its keep in reports without contaminating the search.

// CompareConfig shapes the post-search adaptive-vs-tuned comparison.
// Both designs run with no compute and immediate arrivals.
type CompareConfig struct {
	// Warmup and Iters per run. Zeros select 16 and 24 — the warm-up must
	// cover the adaptive warm-up window plus dwell so the measured
	// iterations observe the post-adaptation design.
	Warmup int
	Iters  int
	// Workers bounds point-level parallelism (0 selects GOMAXPROCS).
	Workers int
}

func (c CompareConfig) withDefaults() CompareConfig {
	if c.Warmup == 0 {
		c.Warmup = 16
	}
	if c.Iters == 0 {
		c.Iters = 24
	}
	return c
}

// CompareRow is one table point measured under the tuned static design and
// under StrategyAdaptive.
type CompareRow struct {
	UserParts int
	Bytes     int
	// TunedNs and AdaptiveNs are mean round-completion latencies.
	TunedNs    int64
	AdaptiveNs int64
	// Ratio is AdaptiveNs / TunedNs (1.0 = parity, below = adaptive wins).
	Ratio float64
	// Switches counts the adaptive run's design changes after the initial
	// plan.
	Switches int
}

// CompareStrategies measures every entry of a tuned table under the
// table-driven static design and under the adaptive strategy, in the
// table's deterministic iteration order.
func CompareStrategies(table *core.TuningTable, cfg CompareConfig) ([]CompareRow, error) {
	if table == nil || table.Len() == 0 {
		return nil, fmt.Errorf("tuning: CompareStrategies needs a non-empty table")
	}
	cfg = cfg.withDefaults()
	var keys []core.TuningKey
	table.ForEach(func(k core.TuningKey, _ core.TuningValue) {
		keys = append(keys, k)
	})
	return sweep.Map(cfg.Workers, len(keys), func(i int) (CompareRow, error) {
		return comparePoint(table, cfg, keys[i])
	})
}

// comparePoint runs both designs at one table entry.
func comparePoint(table *core.TuningTable, cfg CompareConfig, key core.TuningKey) (CompareRow, error) {
	row := CompareRow{UserParts: key.UserParts, Bytes: key.Bytes}
	run := func(opts core.Options) (bench.GridResult, error) {
		return bench.RunGrid(bench.GridConfig{
			Pattern: bench.P2P,
			Threads: key.UserParts,
			Bytes:   key.Bytes,
			Warmup:  cfg.Warmup,
			Iters:   cfg.Iters,
			Opts:    opts,
		})
	}
	tuned, err := run(core.Options{Strategy: core.StrategyTuningTable, Table: table})
	if err != nil {
		return row, fmt.Errorf("tuning: compare tuned at (%d parts, %d B): %w", key.UserParts, key.Bytes, err)
	}
	adaptive, err := run(core.Options{Strategy: core.StrategyAdaptive})
	if err != nil {
		return row, fmt.Errorf("tuning: compare adaptive at (%d parts, %d B): %w", key.UserParts, key.Bytes, err)
	}
	row.TunedNs = tuned.MeanIterTime().Nanoseconds()
	row.AdaptiveNs = adaptive.MeanIterTime().Nanoseconds()
	if row.TunedNs > 0 {
		row.Ratio = float64(row.AdaptiveNs) / float64(row.TunedNs)
	}
	if s := adaptive.Adaptive[0][0]; s != nil {
		row.Switches = len(s.Switches) - 1
	}
	return row, nil
}
