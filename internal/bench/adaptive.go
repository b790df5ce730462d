package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// This file runs the adaptive-vs-static evaluation grid behind the
// ablation-adaptive experiment and TestAdaptiveGuardOnSmokeGrid: every
// (arrival pattern × message size) point measured under each static
// strategy and under StrategyAdaptive, with a Hunold-style
// performance-guideline check —
// the self-tuning design must never trail the best static design by more
// than a bound, and must strictly beat the worst static design where
// arrival skew gives adaptation something to exploit (bursty, straggler).

// AdaptiveGridConfig describes the evaluation grid.
type AdaptiveGridConfig struct {
	// Parts is the user partition count == thread count. Zero selects 16.
	Parts int
	// Sizes are the total buffer sizes. Nil selects 64 KiB, 256 KiB, 1 MiB.
	Sizes []int
	// Patterns are the arrival regimes. Nil selects all four.
	Patterns []trace.PatternKind
	// Spread scales each pattern's arrival skew. Zero selects 500 µs —
	// wide enough that arrival skew stays a meaningful fraction of the
	// round even at the 1 MiB grid point, where transfer time would
	// otherwise drown the controllable cost adaptation works on.
	Spread time.Duration
	// Seed selects the schedule instance. Zero selects 1.
	Seed uint64
	// Warmup must cover the adaptive warm-up window plus dwell so the
	// measured iterations observe the post-adaptation design. Zero
	// selects 16.
	Warmup int
	// Iters is the measured iteration count. Zero selects 32.
	Iters int
	// Compute is per-thread computation before the pattern delay.
	Compute time.Duration
	// Provider names the transport provider ("" selects "verbs").
	Provider string
	// Jobs bounds grid-point parallelism (0 selects GOMAXPROCS).
	Jobs int
}

func (c AdaptiveGridConfig) withDefaults() AdaptiveGridConfig {
	if c.Parts == 0 {
		c.Parts = 16
	}
	if c.Sizes == nil {
		c.Sizes = []int{64 << 10, 256 << 10, 1 << 20}
	}
	if c.Patterns == nil {
		c.Patterns = trace.PatternKinds()
	}
	if c.Spread == 0 {
		c.Spread = 500 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 16
	}
	if c.Iters == 0 {
		c.Iters = 32
	}
	return c
}

// AdaptivePoint is one grid point's measurements: mean round-completion
// latency per design plus the adaptive run's decision telemetry.
type AdaptivePoint struct {
	Pattern string `json:"pattern"`
	Bytes   int    `json:"bytes"`
	// Mean round-completion latencies (receiver-observed), nanoseconds.
	BaselineNs int64 `json:"baseline_ns"`
	PLogGPNs   int64 `json:"ploggp_ns"`
	TimerNs    int64 `json:"timer_ns"`
	AdaptiveNs int64 `json:"adaptive_ns"`
	// BestStatic / WorstStatic summarize the static field.
	BestStatic    string `json:"best_static"`
	BestStaticNs  int64  `json:"best_static_ns"`
	WorstStatic   string `json:"worst_static"`
	WorstStaticNs int64  `json:"worst_static_ns"`
	// Decision telemetry from the adaptive run.
	Switches         int    `json:"switches"`
	FinalMode        string `json:"final_mode"`
	FinalTransport   int    `json:"final_transport"`
	FinalDeltaNs     int64  `json:"final_delta_ns"`
	RegretNs         int64  `json:"regret_ns"`
	RecordedArrivals int64  `json:"recorded_arrivals"`
}

// adaptiveStaticDesigns is the static field the adaptive strategy is
// judged against, in report order.
var adaptiveStaticDesigns = []struct {
	name string
	opts core.Options
}{
	{"baseline", core.Options{Strategy: core.StrategyBaseline}},
	{"ploggp", core.Options{Strategy: core.StrategyPLogGP}},
	{"timer", core.Options{Strategy: core.StrategyTimerPLogGP}},
}

// RunAdaptiveGrid measures every (pattern × size) point under each design
// and returns the points in grid order (patterns outer, sizes inner).
func RunAdaptiveGrid(cfg AdaptiveGridConfig) ([]AdaptivePoint, error) {
	cfg = cfg.withDefaults()
	points := make([]AdaptivePoint, len(cfg.Patterns)*len(cfg.Sizes))
	err := sweep.Ordered(cfg.Jobs, len(points),
		func(i int) (AdaptivePoint, error) {
			pattern := cfg.Patterns[i/len(cfg.Sizes)]
			bytes := cfg.Sizes[i%len(cfg.Sizes)]
			return runAdaptivePoint(cfg, pattern, bytes)
		},
		func(i int, p AdaptivePoint) error {
			points[i] = p
			return nil
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// runAdaptivePoint measures one grid point.
func runAdaptivePoint(cfg AdaptiveGridConfig, kind trace.PatternKind, bytes int) (AdaptivePoint, error) {
	pt := AdaptivePoint{Pattern: kind.String(), Bytes: bytes}
	run := func(opts core.Options) (P2PResult, error) {
		return RunP2P(P2PConfig{
			Parts:    cfg.Parts,
			Bytes:    bytes,
			Compute:  cfg.Compute,
			Warmup:   cfg.Warmup,
			Iters:    cfg.Iters,
			Opts:     opts,
			Provider: cfg.Provider,
			Arrival: &trace.ArrivalPattern{
				Kind:   kind,
				Seed:   cfg.Seed,
				Spread: cfg.Spread,
			},
		})
	}
	static := [3]*int64{&pt.BaselineNs, &pt.PLogGPNs, &pt.TimerNs}
	for i, d := range adaptiveStaticDesigns {
		res, err := run(d.opts)
		if err != nil {
			return pt, fmt.Errorf("bench: %s at %s/%d: %w", d.name, kind, bytes, err)
		}
		ns := res.MeanIterTime().Nanoseconds()
		*static[i] = ns
		if pt.BestStaticNs == 0 || ns < pt.BestStaticNs {
			pt.BestStatic, pt.BestStaticNs = d.name, ns
		}
		if ns > pt.WorstStaticNs {
			pt.WorstStatic, pt.WorstStaticNs = d.name, ns
		}
	}
	res, err := run(core.Options{Strategy: core.StrategyAdaptive})
	if err != nil {
		return pt, fmt.Errorf("bench: adaptive at %s/%d: %w", kind, bytes, err)
	}
	pt.AdaptiveNs = res.MeanIterTime().Nanoseconds()
	if s := res.Adaptive; s != nil {
		pt.Switches = len(s.Switches) - 1 // entry 0 records the initial design
		pt.FinalMode = s.Mode.String()
		pt.FinalTransport = s.Transport
		pt.FinalDeltaNs = int64(s.Delta)
		pt.RegretNs = s.RegretNs
		pt.RecordedArrivals = s.RecordedArrivals
	}
	return pt, nil
}

// AdaptiveGuardBound is the Hunold-style guarantee: post-warm-up adaptive
// round latency must stay within this factor of the best static design.
const AdaptiveGuardBound = 1.10

// CheckAdaptiveGuard verifies the performance guideline over a measured
// grid and returns one violation message per failing point: adaptive must
// be ≤ best-static × bound everywhere, and strictly faster than the worst
// static design on the bursty and straggler patterns, where arrival skew
// gives adaptation room to matter.
func CheckAdaptiveGuard(points []AdaptivePoint, bound float64) []string {
	var violations []string
	for _, p := range points {
		limit := int64(float64(p.BestStaticNs) * bound)
		if p.AdaptiveNs > limit {
			violations = append(violations, fmt.Sprintf(
				"%s/%dB: adaptive %dns exceeds best static (%s) %dns × %.2f = %dns",
				p.Pattern, p.Bytes, p.AdaptiveNs, p.BestStatic, p.BestStaticNs, bound, limit))
		}
		if p.Pattern == "bursty" || p.Pattern == "straggler" {
			if p.AdaptiveNs >= p.WorstStaticNs {
				violations = append(violations, fmt.Sprintf(
					"%s/%dB: adaptive %dns does not beat worst static (%s) %dns",
					p.Pattern, p.Bytes, p.AdaptiveNs, p.WorstStatic, p.WorstStaticNs))
			}
		}
	}
	return violations
}
