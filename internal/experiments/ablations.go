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

// ablationModel validates the two PLogGP variants against the simulator:
// the ideal-early-bird model the paper selects partition counts with, and
// the pipelined variant that also charges the early train's wire time (the
// effect the paper's Figure 11 profiling exposes at 128 MiB). Measured
// times come from the perceived-bandwidth benchmark's round completion
// under the same many-before-one arrival.
func ablationModel(cfg Config) plan {
	const parts = 32
	delay := 4 * time.Millisecond
	sizes := []int{1 << 20, 8 << 20, 32 << 20, 128 << 20}
	if cfg.Quick {
		sizes = []int{8 << 20}
	}
	warmup, iters := cfg.rounds(1, 3, 5, 10)
	var p plan
	for _, s := range sizes {
		p.jobs = append(p.jobs, bench.GridConfig{
			Pattern: bench.P2P, Threads: parts, Bytes: s,
			Compute:  100 * time.Millisecond,
			NoisePct: 4, // 4 ms laggard on 100 ms compute
			Warmup:   warmup,
			Iters:    iters,
			Opts:     core.Options{Strategy: core.StrategyPLogGP},
		})
	}
	p.render = func(res []bench.GridResult) []*stats.Table {
		model := niagaraModel()
		tb := stats.NewTable(
			"Ablation: PLogGP model variants vs simulated completion (32 partitions, 4 ms laggard)",
			"size", "n*", "model ideal", "model pipelined", "simulated")
		for si, s := range sizes {
			n := model.OptimalTransport(s, parts, delay)
			// The measured analogue of the model's T: from round start to
			// all partitions received, minus the common 100 ms compute.
			tb.AddRow(stats.FormatBytes(s), n,
				model.CompletionTime(n, s, delay),
				model.CompletionTimePipelined(n, s, delay),
				res[si].MeanCommTime())
		}
		return []*stats.Table{tb}
	}
	return p
}

// adaptiveDesigns are the static designs the adaptive strategy is judged
// against, in report order, and then the adaptive strategy.
var adaptiveDesigns = []struct {
	name string
	opts core.Options
}{
	{"baseline", core.Options{Strategy: core.StrategyBaseline}},
	{"ploggp", core.Options{Strategy: core.StrategyPLogGP}},
	{"timer", core.Options{Strategy: core.StrategyTimerPLogGP}},
	{"adaptive", core.Options{Strategy: core.StrategyAdaptive}},
}

// adaptiveJobs lists the adaptive-vs-static grid: base under every
// adaptiveDesigns entry, for every arrival pattern (outer) and size
// (inner). base.Arrival supplies the seed and spread the patterns share.
func adaptiveJobs(base bench.GridConfig, sizes []int) []bench.GridConfig {
	var jobs []bench.GridConfig
	for _, kind := range trace.PatternKinds() {
		arrival := *base.Arrival
		arrival.Kind = kind
		for _, s := range sizes {
			for _, d := range adaptiveDesigns {
				job := base
				job.Bytes, job.Opts, job.Arrival = s, d.opts, &arrival
				jobs = append(jobs, job)
			}
		}
	}
	return jobs
}

// adaptivePoint is one (arrival pattern, size) point of the grid: the
// mean round latency of every static design and of the adaptive strategy,
// and the adaptive run's decision telemetry.
type adaptivePoint struct {
	pattern     string
	bytes       int
	static      [3]time.Duration // in adaptiveDesigns order
	adaptive    time.Duration
	best, worst int // indices into static; the first on a tie
	tel         *core.AdaptiveStats
}

// adaptivePoints reads the grid adaptiveJobs listed as jobs from its
// results.
func adaptivePoints(jobs []bench.GridConfig, res []bench.GridResult) []adaptivePoint {
	n := len(adaptiveDesigns)
	points := make([]adaptivePoint, len(jobs)/n)
	for i := range points {
		job, block := jobs[i*n], res[i*n:(i+1)*n]
		p := adaptivePoint{pattern: job.Arrival.Kind.String(), bytes: job.Bytes}
		for d, r := range block[:n-1] {
			p.static[d] = r.MeanIterTime()
			if p.static[d] < p.static[p.best] {
				p.best = d
			}
			if p.static[d] > p.static[p.worst] {
				p.worst = d
			}
		}
		p.adaptive = block[n-1].MeanIterTime()
		p.tel = block[n-1].Adaptive[0][0]
		points[i] = p
	}
	return points
}

// adaptiveGuardBound is the Hunold-style guarantee: post-warm-up adaptive
// round latency must stay within this factor of the best static design.
const adaptiveGuardBound = 1.10

// checkAdaptiveGuard verifies the performance guideline over a measured
// grid and returns one violation message per failing point: adaptive must
// be ≤ best-static × adaptiveGuardBound everywhere, and strictly faster than the worst
// static design on the bursty and straggler patterns, where arrival skew
// gives adaptation room to matter.
func checkAdaptiveGuard(points []adaptivePoint) []string {
	const bound = adaptiveGuardBound
	var violations []string
	for _, p := range points {
		best, worst := p.static[p.best].Nanoseconds(), p.static[p.worst].Nanoseconds()
		limit := int64(float64(best) * bound)
		if p.adaptive.Nanoseconds() > limit {
			violations = append(violations, fmt.Sprintf(
				"%s/%dB: adaptive %dns exceeds best static (%s) %dns × %.2f = %dns",
				p.pattern, p.bytes, p.adaptive.Nanoseconds(), adaptiveDesigns[p.best].name, best, bound, limit))
		}
		if (p.pattern == "bursty" || p.pattern == "straggler") && p.adaptive.Nanoseconds() >= worst {
			violations = append(violations, fmt.Sprintf(
				"%s/%dB: adaptive %dns does not beat worst static (%s) %dns",
				p.pattern, p.bytes, p.adaptive.Nanoseconds(), adaptiveDesigns[p.worst].name, worst))
		}
	}
	return violations
}

// ablationAdaptive evaluates the self-tuning aggregator against each
// static design across the four synthetic arrival regimes (uniform,
// bursty, zipf, straggler) — the fig8-style exhibit for StrategyAdaptive.
// The second table reports the Hunold-style never-worse guard: adaptive
// must stay within adaptiveGuardBound of the best static design at every
// point and strictly beat the worst static design on the skewed patterns.
// The 16 warm-up rounds cover the adaptive warm-up window plus dwell, so
// the measured rounds observe the post-adaptation design; the 500 µs
// spread keeps arrival skew a meaningful fraction of the round even at
// 1 MiB, where transfer time would otherwise drown the cost adaptation
// works on.
func ablationAdaptive(cfg Config) plan {
	sizes := []int{64 << 10, 256 << 10, 1 << 20}
	base := bench.GridConfig{
		Pattern: bench.P2P,
		Threads: 16,
		Warmup:  16,
		Iters:   32,
		Arrival: &trace.ArrivalPattern{Seed: 1, Spread: 500 * time.Microsecond},
	}
	if cfg.Quick {
		sizes = []int{256 << 10}
		base.Iters = 16
	}
	jobs := adaptiveJobs(base, sizes)
	return plan{jobs: jobs, render: func(res []bench.GridResult) []*stats.Table {
		points := adaptivePoints(jobs, res)
		tb := stats.NewTable(
			"Ablation: adaptive vs static designs across arrival patterns (mean round latency)",
			"pattern", "size", "baseline", "ploggp", "timer", "adaptive", "best static", "switches", "final design")
		for _, p := range points {
			switches, final := 0, ""
			if s := p.tel; s != nil {
				switches = len(s.Switches) - 1 // entry 0 records the initial design
				final = s.Mode.String()
				if s.Transport > 0 {
					final = fmt.Sprintf("%s/t%d", s.Mode, s.Transport)
				}
			}
			tb.AddRow(p.pattern, stats.FormatBytes(p.bytes),
				p.static[0], p.static[1], p.static[2], p.adaptive,
				adaptiveDesigns[p.best].name, switches, final)
		}
		guard := stats.NewTable(
			fmt.Sprintf("Adaptive never-worse guard (bound x%.2f vs best static)", adaptiveGuardBound),
			"check", "result")
		if violations := checkAdaptiveGuard(points); len(violations) > 0 {
			for _, v := range violations {
				guard.AddRow("VIOLATION", v)
			}
		} else {
			guard.AddRow("all points", "ok")
		}
		return []*stats.Table{tb, guard}
	}}
}
