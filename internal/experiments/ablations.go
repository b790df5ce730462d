package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Ablation experiments beyond the paper's figures: the PLogGP model
// variants against the simulator, and the adaptive strategy against each
// static design.

// AblationModel validates the two PLogGP variants against the simulator:
// the ideal-early-bird model the paper selects partition counts with, and
// the pipelined variant that also charges the early train's wire time (the
// effect the paper's Figure 11 profiling exposes at 128 MiB). Measured
// times come from the perceived-bandwidth benchmark's round completion
// under the same many-before-one arrival.
func AblationModel(cfg Config) ([]*stats.Table, error) {
	const parts = 32
	delay := 4 * time.Millisecond
	sizes := []int{1 << 20, 8 << 20, 32 << 20, 128 << 20}
	if cfg.Quick {
		sizes = []int{8 << 20}
	}
	model := niagaraModel()
	tb := stats.NewTable(
		"Ablation: PLogGP model variants vs simulated completion (32 partitions, 4 ms laggard)",
		"size", "n*", "model ideal", "model pipelined", "simulated")
	jobs := make([]bench.GridConfig, len(sizes))
	for i, s := range sizes {
		jobs[i] = bench.GridConfig{
			Pattern: bench.P2P, Threads: parts, Bytes: s,
			Compute:  100 * time.Millisecond,
			NoisePct: 4, // 4 ms laggard on 100 ms compute
			Warmup:   warmupFor(cfg, 5),
			Iters:    itersFor(cfg, 10),
			Opts:     core.Options{Strategy: core.StrategyPLogGP},
			Shards:   cfg.Shards,
			Topo:     cfg.Topo,
		}
	}
	results, err := runOrdered(cfg, jobs, bench.RunGrid, nil)
	if err != nil {
		return nil, err
	}
	for si, s := range sizes {
		n := model.OptimalTransport(s, parts, delay)
		// The measured analogue of the model's T: from round start to all
		// partitions received, minus the common 100 ms compute.
		measured := results[si].MeanCommTime()
		tb.AddRow(stats.FormatBytes(s), n,
			model.CompletionTime(n, s, delay),
			model.CompletionTimePipelined(n, s, delay),
			measured)
	}
	return []*stats.Table{tb}, nil
}

// AblationAdaptive evaluates the self-tuning aggregator against each
// static design across the four synthetic arrival regimes (uniform,
// bursty, zipf, straggler) — the fig8-style exhibit for StrategyAdaptive.
// The second table reports the Hunold-style never-worse guard: adaptive
// must stay within bench.AdaptiveGuardBound of the best static design at
// every point and strictly beat the worst static design on the skewed
// patterns.
func AblationAdaptive(cfg Config) ([]*stats.Table, error) {
	grid := bench.AdaptiveGridConfig{
		Jobs: cfg.Jobs,
	}
	if cfg.Quick {
		grid.Sizes = []int{256 << 10}
		grid.Iters = 16
	}
	cfg.progress("ablation-adaptive: %d arrival patterns, 4 designs each", len(trace.PatternKinds()))
	points, err := bench.RunAdaptiveGrid(grid)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(
		"Ablation: adaptive vs static designs across arrival patterns (mean round latency)",
		"pattern", "size", "baseline", "ploggp", "timer", "adaptive", "best static", "switches", "final design")
	for _, p := range points {
		final := p.FinalMode
		if p.FinalTransport > 0 {
			final = fmt.Sprintf("%s/t%d", p.FinalMode, p.FinalTransport)
		}
		tb.AddRow(p.Pattern, stats.FormatBytes(p.Bytes),
			time.Duration(p.BaselineNs), time.Duration(p.PLogGPNs),
			time.Duration(p.TimerNs), time.Duration(p.AdaptiveNs),
			p.BestStatic, p.Switches, final)
	}
	guard := stats.NewTable(
		fmt.Sprintf("Adaptive never-worse guard (bound x%.2f vs best static)", bench.AdaptiveGuardBound),
		"check", "result")
	if violations := bench.CheckAdaptiveGuard(points, bench.AdaptiveGuardBound); len(violations) > 0 {
		for _, v := range violations {
			guard.AddRow("VIOLATION", v)
		}
	} else {
		guard.AddRow("all points", "ok")
	}
	return []*stats.Table{tb, guard}, nil
}
