package bench

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
)

// quick returns small iteration counts for unit tests.
func quick(cfg GridConfig) GridConfig {
	cfg.Warmup = 2
	cfg.Iters = 5
	return cfg
}

func TestP2PConfigValidate(t *testing.T) {
	good := GridConfig{Pattern: P2P, Threads: 4, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []GridConfig{
		{Pattern: P2P, Threads: 0, Bytes: 4096},
		{Pattern: P2P, Threads: 3, Bytes: 100},
		{Pattern: P2P, Threads: 4, Bytes: 4096, Compute: -1},
		{Pattern: P2P, Threads: 4, Bytes: 4096, NoisePct: -1},
		{Pattern: P2P, Threads: 4, Bytes: 4096, Iters: -1},
		{Pattern: P2P, Threads: 4, Bytes: 4096, JitterPerThread: -1},
		{Pattern: P2P, GridX: 3, GridY: 1, Threads: 4, Bytes: 4096},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestOverheadBenchmarkRuns(t *testing.T) {
	res, err := RunGrid(quick(GridConfig{
		Pattern: P2P,
		Threads: 8,
		Bytes:   64 << 10,
		Opts:    core.Options{Strategy: core.StrategyPLogGP},
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
	if len(res.Arrivals) != 5*8 { // measured rounds x threads
		t.Fatalf("recorded %d arrivals, want 40", len(res.Arrivals))
	}
}

func TestAggregationBeatsBaselineAtMediumSizes(t *testing.T) {
	// The paper's headline: at 128 KiB with 32 partitions the aggregators
	// clearly beat the per-partition baseline on the overhead benchmark.
	base, err := RunGrid(quick(GridConfig{
		Pattern: P2P,
		Threads: 32, Bytes: 128 << 10,
		Opts: core.Options{Strategy: core.StrategyBaseline},
	}))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunGrid(quick(GridConfig{
		Pattern: P2P,
		Threads: 32, Bytes: 128 << 10,
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
	res, err := RunGrid(GridConfig{
		Pattern:  P2P,
		Threads:  32,
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
	link := fabric.LinkBandwidth
	if got := res.MeanPerceivedBandwidth(); got <= link {
		t.Fatalf("timer perceived bandwidth %.2f GB/s not above link %.2f GB/s",
			got/1e9, link/1e9)
	}
}

func TestPerceivedBandwidthOrdering(t *testing.T) {
	// Paper Figure 9: baseline (no aggregation) >= timer >= plain PLogGP
	// for medium sizes under the single-thread-delay model.
	run := func(opts core.Options) float64 {
		res, err := RunGrid(GridConfig{
			Pattern: P2P,
			Threads: 32, Bytes: 8 << 20,
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
	res, err := RunGrid(GridConfig{
		Pattern: P2P,
		Threads: 4, Bytes: 4096,
		Compute: time.Millisecond, NoisePct: 100, // laggard +1ms
		Warmup: 1, Iters: 2,
		Opts: core.Options{Strategy: core.StrategyPLogGP},
	})
	if err != nil {
		t.Fatal(err)
	}
	// In the first measured round the last thread calls Pready last.
	calls := res.Arrivals[:4]
	for tid, d := range calls[:3] {
		if d >= calls[3] {
			t.Fatalf("thread %d called Pready at %v, not before the last thread's %v", tid, d, calls[3])
		}
	}
}

// TestArrivalStats checks MeanArrival and MinDelta on hand-built arrival
// profiles.
func TestArrivalStats(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		name     string
		threads  int
		arrivals []time.Duration
		mean     []time.Duration
		minDelta time.Duration
	}{
		{
			// Round spreads 20µs and 40µs among partitions 0-2; the
			// laggard, partition 3, is excluded.
			name:     "laggard excluded",
			threads:  4,
			arrivals: []time.Duration{10 * us, 20 * us, 30 * us, 5000 * us, 10 * us, 50 * us, 30 * us, 3000 * us},
			mean:     []time.Duration{10 * us, 35 * us, 30 * us, 4000 * us},
			minDelta: 30 * us,
		},
		{
			// Partitions 1 and 2 tie for the latest call: only partition 1
			// is the laggard, so partition 2 sets the spread's end.
			name:     "tie excludes lowest index",
			threads:  3,
			arrivals: []time.Duration{10 * us, 90 * us, 90 * us},
			mean:     []time.Duration{10 * us, 90 * us, 90 * us},
			minDelta: 80 * us,
		},
		{
			name:     "single partition",
			threads:  1,
			arrivals: []time.Duration{7 * us, 9 * us},
			mean:     []time.Duration{8 * us},
			minDelta: 0,
		},
		{
			// Integer means truncate, as time.Duration division does.
			name:     "integer means",
			threads:  3,
			arrivals: []time.Duration{0, 1, 9, 1, 3, 9},
			mean:     []time.Duration{0, 2, 9},
			minDelta: 1,
		},
		{
			name:     "no rounds",
			threads:  2,
			mean:     []time.Duration{0, 0},
			minDelta: 0,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := GridResult{Arrivals: c.arrivals, Threads: c.threads}
			if got := r.MeanArrival(); !slices.Equal(got, c.mean) {
				t.Errorf("MeanArrival = %v, want %v", got, c.mean)
			}
			if got := r.MinDelta(); got != c.minDelta {
				t.Errorf("MinDelta = %v, want %v", got, c.minDelta)
			}
		})
	}
}

func TestSweepConfigValidate(t *testing.T) {
	good := GridConfig{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []GridConfig{
		{GridX: 0, GridY: 2, Threads: 4, Bytes: 4096},
		{GridX: 2, GridY: 2, Threads: 0, Bytes: 4096},
		{GridX: 2, GridY: 2, Threads: 3, Bytes: 100},
		{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Compute: -1},
		{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Iters: -5},
		{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Warmup: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestRunnersRejectInvalidCluster requires every pattern to report an
// invalid cluster configuration as an error: cluster.New panics on one, and
// a panic raised inside a job pool worker takes the whole process down.
// The grids run more ranks than a k=2 fat-tree's 2 hosts. Every topology
// holds the 2 ranks of P2P, so its invalid cluster is a negative shard
// count.
func TestRunnersRejectInvalidCluster(t *testing.T) {
	runners := []struct {
		name string
		run  func() error
	}{
		{"p2p", func() error {
			_, _, err := runGrid(GridConfig{Pattern: P2P, Threads: 4, Bytes: 4096}, -1)
			return err
		}},
		{"sweep", func() error {
			_, err := RunGrid(GridConfig{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Topo: "fat-tree:k=2"})
			return err
		}},
		{"halo", func() error {
			_, err := RunGrid(GridConfig{Pattern: Halo, GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Topo: "fat-tree:k=2"})
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
				t.Fatal("invalid cluster accepted")
			}
		})
	}
}

// TestEveryPatternDeliversSendersBytes requires each rank's receive
// buffers to hold, in init order, the bytes its peers filled their send
// buffers with. The differential tests only compare digests across shard
// and worker counts, so a placement that went wrong the same way every
// time would pass them; it fails here.
func TestEveryPatternDeliversSendersBytes(t *testing.T) {
	const threads, bytes = 4, 4 * 1025 // a partition ends off a word boundary
	for _, c := range []struct {
		pattern GridPattern
		gx, gy  int
	}{{P2P, 2, 1}, {Sweep3D, 3, 2}, {Halo, 2, 3}} {
		pat := &gridPatterns[c.pattern]
		t.Run(pat.name, func(t *testing.T) {
			res, err := RunGrid(GridConfig{
				Pattern: c.pattern,
				GridX:   c.gx, GridY: c.gy,
				Threads: threads,
				Bytes:   bytes,
				Warmup:  1, Iters: 2,
				Opts: core.Options{Strategy: core.StrategyPLogGP},
			})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, bytes)
			for id, got := range res.BufferSums {
				x, y := id%c.gx, id/c.gx
				want := uint64(14695981039346656037) // FNV-1a offset basis
				for _, l := range pat.links {
					if l.send {
						continue
					}
					nx, ny := x+l.dx, y+l.dy
					if pat.periodic {
						nx, ny = (nx+c.gx)%c.gx, (ny+c.gy)%c.gy
					} else if nx < 0 || nx >= c.gx || ny < 0 || ny >= c.gy {
						continue
					}
					fillRankBuf(buf, ny*c.gx+nx, l.tag)
					want = fnvWords(want, buf)
				}
				if got != want {
					t.Errorf("rank %d: receive digest %#x, want %#x from its peers' send buffers", id, got, want)
				}
			}
		})
	}
}

func TestSweepRuns(t *testing.T) {
	res, err := RunGrid(GridConfig{
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
		res, err := RunGrid(GridConfig{
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
