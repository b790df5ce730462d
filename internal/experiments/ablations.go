package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Ablation experiments beyond the paper's figures: the design choices
// DESIGN.md calls out, plus the small-message hardware features the paper
// explicitly defers to future work (Section VI-A).

// AblationInline studies inlining/BlueFlame for small messages — the
// future-work item of Section VI-A. Transport partitions at or under the
// QP's inline limit are posted with IBV_SEND_INLINE and skip the WQE DMA
// fetch.
func AblationInline(cfg Config) ([]*stats.Table, error) {
	const parts = 16
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 16 << 10, 64 << 10}
	if cfg.Quick {
		sizes = []int{1 << 10, 4 << 10}
	}
	warmup, iters := cfg.iterCounts()
	tb := stats.NewTable(
		"Ablation: IBV_SEND_INLINE for small transport partitions (future work of Section VI-A)",
		"size", "plain round", "inline round", "improvement")
	jobs := make([]bench.P2PConfig, 0, 2*len(sizes))
	for _, s := range sizes {
		for _, inline := range []bool{false, true} {
			jobs = append(jobs, bench.P2PConfig{
				Parts: parts, Bytes: s, Warmup: warmup, Iters: iters,
				Opts: core.Options{
					Strategy:       core.StrategyPLogGP,
					TransportParts: parts, // per-partition WRs so inline can apply
					UseInline:      inline,
				},
				Shards: cfg.Shards,
				Topo:   cfg.Topo,
			})
		}
	}
	res, err := runOrdered(cfg, jobs, bench.RunP2P, nil)
	if err != nil {
		return nil, err
	}
	for si, s := range sizes {
		plain := res[2*si].MeanIterTime()
		inlined := res[2*si+1].MeanIterTime()
		tb.AddRow(stats.FormatBytes(s), plain, inlined, stats.Speedup(plain, inlined))
	}
	return []*stats.Table{tb}, nil
}

// AblationWindow studies the per-QP in-flight RDMA window (the ConnectX-5
// limit of 16 the paper designs around): stop-and-wait windows throttle
// small transport partitions where the ack round trip exceeds the per-QP
// injection pacing.
func AblationWindow(cfg Config) ([]*stats.Table, error) {
	const parts = 16
	sizes := []int{16 << 10, 64 << 10, 1 << 20}
	windows := []int{1, 2, 4, 16}
	if cfg.Quick {
		sizes = []int{16 << 10}
		windows = []int{1, 16}
	}
	warmup, iters := cfg.iterCounts()
	headers := []string{"size"}
	for _, w := range windows {
		headers = append(headers, fmt.Sprintf("round(window=%d)", w))
	}
	tb := stats.NewTable("Ablation: per-QP in-flight RDMA window, 16 transport partitions on 1 QP", headers...)
	jobs := make([]bench.P2PConfig, 0, len(sizes)*len(windows))
	for _, s := range sizes {
		for _, w := range windows {
			jobs = append(jobs, bench.P2PConfig{
				Parts: parts, Bytes: s, Warmup: warmup, Iters: iters,
				Opts: core.Options{
					Strategy:            core.StrategyPLogGP,
					TransportParts:      parts,
					QPs:                 1,
					MaxOutstandingPerQP: w,
				},
				Shards: cfg.Shards,
				Topo:   cfg.Topo,
			})
		}
	}
	res, err := runOrdered(cfg, jobs, bench.RunP2P, nil)
	if err != nil {
		return nil, err
	}
	for si, s := range sizes {
		row := []any{stats.FormatBytes(s)}
		for wi := range windows {
			row = append(row, res[si*len(windows)+wi].MeanIterTime())
		}
		tb.AddRow(row...)
	}
	return []*stats.Table{tb}, nil
}

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
	jobs := make([]bench.P2PConfig, len(sizes))
	for i, s := range sizes {
		jobs[i] = bench.P2PConfig{
			Parts: parts, Bytes: s,
			Compute:  100 * time.Millisecond,
			NoisePct: 4, // 4 ms laggard on 100 ms compute
			Warmup:   warmupFor(cfg, 5),
			Iters:    itersFor(cfg, 10),
			Opts:     core.Options{Strategy: core.StrategyPLogGP},
			Shards:   cfg.Shards,
			Topo:     cfg.Topo,
		}
	}
	results, err := runOrdered(cfg, jobs, bench.RunP2P, nil)
	if err != nil {
		return nil, err
	}
	for si, s := range sizes {
		n := model.OptimalTransport(s, parts, delay)
		// The measured analogue of the model's T: from round start to all
		// partitions received, minus the common 100 ms compute.
		measured := results[si].MeanIterTime() - 100*time.Millisecond
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

// AblationTimer isolates the timer mechanism across δ, including the
// degenerate endpoints: δ=0 (send every partition immediately) and δ→∞
// (equivalent to plain PLogGP).
func AblationTimer(cfg Config) ([]*stats.Table, error) {
	const parts = 32
	size := 8 << 20
	deltas := []time.Duration{
		0, 10 * time.Microsecond, 35 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, time.Hour, // "infinite"
	}
	if cfg.Quick {
		deltas = []time.Duration{0, 35 * time.Microsecond, time.Hour}
	}
	tb := stats.NewTable(
		"Ablation: timer delta endpoints, 32 partitions, 8 MiB, 100 ms compute, 4% noise",
		"delta", "perceived BW (GB/s)", "fabric messages/round")
	jobs := make([]bench.P2PConfig, len(deltas))
	for i, d := range deltas {
		opts := core.Options{Strategy: core.StrategyTimerPLogGP, Delta: d}
		if d == 0 {
			// δ=0 approximated by a nanosecond: fire immediately.
			opts.Delta = time.Nanosecond
		}
		jobs[i] = bench.P2PConfig{
			Parts: parts, Bytes: size,
			Compute: 100 * time.Millisecond, NoisePct: 4,
			Warmup: warmupFor(cfg, 5),
			Iters:  itersFor(cfg, 10),
			Opts:   opts,
			Shards: cfg.Shards,
			Topo:   cfg.Topo,
		}
	}
	results, err := runOrdered(cfg, jobs, bench.RunP2P, nil)
	if err != nil {
		return nil, err
	}
	for di, d := range deltas {
		label := d.String()
		if d == time.Hour {
			label = "inf"
		}
		rounds := int64(warmupFor(cfg, 5) + itersFor(cfg, 10))
		tb.AddRow(label, results[di].MeanPerceivedBandwidth()/1e9, results[di].FabricMessages/rounds)
	}
	return []*stats.Table{tb}, nil
}
