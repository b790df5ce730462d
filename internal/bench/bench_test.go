package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
)

// quick returns small iteration counts for unit tests.
func quick(cfg P2PConfig) P2PConfig {
	cfg.Warmup = 2
	cfg.Iters = 5
	return cfg
}

func TestP2PConfigValidate(t *testing.T) {
	good := P2PConfig{Parts: 4, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []P2PConfig{
		{Parts: 0, Bytes: 4096},
		{Parts: 3, Bytes: 100},
		{Parts: 4, Bytes: 4096, Compute: -1},
		{Parts: 4, Bytes: 4096, NoisePct: -1},
		{Parts: 4, Bytes: 4096, Iters: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestOverheadBenchmarkRuns(t *testing.T) {
	res, err := RunP2P(quick(P2PConfig{
		Parts: 8,
		Bytes: 64 << 10,
		Opts:  core.Options{Strategy: core.StrategyPLogGP},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != 5 {
		t.Fatalf("got %d iteration times, want 5", len(res.IterTimes))
	}
	for i, d := range res.IterTimes {
		if d <= 0 {
			t.Errorf("iteration %d took %v", i, d)
		}
	}
	if res.MeanIterTime() <= 0 {
		t.Fatal("non-positive mean")
	}
	if res.Profile.Rounds() != 7 { // warmup + iters
		t.Fatalf("profile recorded %d rounds", res.Profile.Rounds())
	}
}

func TestAggregationBeatsBaselineAtMediumSizes(t *testing.T) {
	// The paper's headline: at 128 KiB with 32 partitions the aggregators
	// clearly beat the per-partition baseline on the overhead benchmark.
	base, err := RunP2P(quick(P2PConfig{
		Parts: 32, Bytes: 128 << 10,
		Opts: core.Options{Strategy: core.StrategyBaseline},
	}))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunP2P(quick(P2PConfig{
		Parts: 32, Bytes: 128 << 10,
		Opts: core.Options{Strategy: core.StrategyPLogGP},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if agg.MeanIterTime() >= base.MeanIterTime() {
		t.Fatalf("aggregated %v not faster than baseline %v", agg.MeanIterTime(), base.MeanIterTime())
	}
	if agg.FabricMessages >= base.FabricMessages {
		t.Fatalf("aggregated posted %d messages, baseline %d", agg.FabricMessages, base.FabricMessages)
	}
}

func TestPerceivedBandwidthAboveWireForTimer(t *testing.T) {
	// With 100 ms compute and a 4 ms laggard at 8 MiB, the timer design
	// sends the early partitions during the laggard's delay: the perceived
	// bandwidth must exceed the physical link bandwidth (the paper's
	// dotted line), because only the last partition's latency is visible.
	res, err := RunP2P(P2PConfig{
		Parts:    32,
		Bytes:    8 << 20,
		Compute:  100 * time.Millisecond,
		NoisePct: 4,
		Warmup:   1,
		Iters:    3,
		Opts: core.Options{
			Strategy: core.StrategyTimerPLogGP,
			Delta:    35 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := fabric.DefaultConfig().LinkBandwidth()
	if got := res.MeanPerceivedBandwidth(); got <= link {
		t.Fatalf("timer perceived bandwidth %.2f GB/s not above link %.2f GB/s",
			got/1e9, link/1e9)
	}
}

func TestPerceivedBandwidthOrdering(t *testing.T) {
	// Paper Figure 9: baseline (no aggregation) >= timer >= plain PLogGP
	// for medium sizes under the single-thread-delay model.
	run := func(opts core.Options) float64 {
		res, err := RunP2P(P2PConfig{
			Parts: 32, Bytes: 8 << 20,
			Compute: 100 * time.Millisecond, NoisePct: 4,
			Warmup: 1, Iters: 3,
			Opts: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanPerceivedBandwidth()
	}
	baseline := run(core.Options{Strategy: core.StrategyBaseline})
	timer := run(core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 35 * time.Microsecond})
	ploggp := run(core.Options{Strategy: core.StrategyPLogGP})
	if !(timer > ploggp) {
		t.Errorf("timer (%.2e) not above plain PLogGP (%.2e)", timer, ploggp)
	}
	if !(baseline > ploggp) {
		t.Errorf("baseline (%.2e) not above plain PLogGP (%.2e)", baseline, ploggp)
	}
}

func TestLaggardSelection(t *testing.T) {
	res, err := RunP2P(P2PConfig{
		Parts: 4, Bytes: 4096,
		Compute: time.Millisecond, NoisePct: 100, // laggard +1ms
		Laggard: 1,
		Warmup:  1, Iters: 2,
		Opts: core.Options{Strategy: core.StrategyPLogGP},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Profile.Round(res.Warmup)
	if got := r.Laggard(); got != 1 {
		t.Fatalf("laggard = %d, want 1", got)
	}
}

func TestSweepConfigValidate(t *testing.T) {
	good := SweepConfig{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SweepConfig{
		{GridX: 0, GridY: 2, Threads: 4, Bytes: 4096},
		{GridX: 2, GridY: 2, Threads: 0, Bytes: 4096},
		{GridX: 2, GridY: 2, Threads: 3, Bytes: 100},
		{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Compute: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestRunnersRejectInvalidCluster requires every runner to report an
// invalid cluster configuration as an error: cluster.New panics on one, and
// a panic raised inside a sweep worker takes the whole process down.
func TestRunnersRejectInvalidCluster(t *testing.T) {
	runners := []struct {
		name string
		run  func() error
	}{
		{"p2p", func() error {
			_, err := RunP2P(P2PConfig{Parts: 4, Bytes: 4096, Shards: -1})
			return err
		}},
		{"sweep", func() error {
			_, err := RunSweep(SweepConfig{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Shards: -1})
			return err
		}},
		{"halo", func() error {
			_, err := RunHalo(HaloConfig{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Shards: -1})
			return err
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked instead of returning an error: %v", p)
				}
			}()
			if err := r.run(); err == nil {
				t.Fatal("Shards: -1 accepted")
			}
		})
	}
}

func TestSweepRuns(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		GridX: 3, GridY: 3,
		Threads: 4,
		Bytes:   64 << 10,
		Compute: 100 * time.Microsecond,
		Warmup:  1, Iters: 3,
		Opts: core.Options{Strategy: core.StrategyPLogGP},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != 3 {
		t.Fatalf("got %d iterations", len(res.IterTimes))
	}
	// The wavefront must take at least the critical compute path.
	for _, d := range res.IterTimes {
		if d < res.CriticalCompute {
			t.Fatalf("iteration %v below critical compute %v", d, res.CriticalCompute)
		}
	}
	if res.MeanCommTime() <= 0 {
		t.Fatal("non-positive comm time")
	}
}

func TestSweepAggregationBeatsBaseline(t *testing.T) {
	run := func(opts core.Options) time.Duration {
		res, err := RunSweep(SweepConfig{
			GridX: 3, GridY: 3,
			Threads:  16,
			Bytes:    512 << 10,
			Compute:  time.Millisecond,
			NoisePct: 1,
			Warmup:   1, Iters: 3,
			Opts: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCommTime()
	}
	base := run(core.Options{Strategy: core.StrategyBaseline})
	timer := run(core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 35 * time.Microsecond})
	if timer >= base {
		t.Fatalf("timer comm time %v not below baseline %v", timer, base)
	}
}
