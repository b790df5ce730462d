package bench

import (
	"testing"
	"time"

	"repro/internal/core"
)

func TestHaloConfigValidate(t *testing.T) {
	good := GridConfig{Pattern: Halo, GridX: 2, GridY: 2, Threads: 4, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []GridConfig{
		{Pattern: Halo, GridX: 1, GridY: 2, Threads: 4, Bytes: 4096},
		{Pattern: Halo, GridX: 2, GridY: 2, Threads: 0, Bytes: 4096},
		{Pattern: Halo, GridX: 2, GridY: 2, Threads: 3, Bytes: 100},
		{Pattern: Halo, GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, NoisePct: -1},
		{Pattern: Halo, GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Iters: -5},
		{Pattern: Halo, GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, Warmup: -1},
		{Pattern: GridPattern(len(gridPatterns)), GridX: 2, GridY: 2, Threads: 4, Bytes: 4096},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHaloRuns(t *testing.T) {
	res, err := RunGrid(GridConfig{
		Pattern: Halo,
		GridX:   3, GridY: 2,
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
	for _, d := range res.IterTimes {
		if d < res.CriticalCompute {
			t.Fatalf("iteration %v below compute %v", d, res.CriticalCompute)
		}
	}
	if res.MeanCommTime() <= 0 {
		t.Fatal("non-positive comm time")
	}
}

func TestHaloAggregationBeatsBaseline(t *testing.T) {
	run := func(opts core.Options) time.Duration {
		res, err := RunGrid(GridConfig{
			Pattern: Halo,
			GridX:   2, GridY: 2,
			Threads:  16,
			Bytes:    256 << 10,
			Compute:  500 * time.Microsecond,
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
		t.Fatalf("timer comm %v not below baseline %v", timer, base)
	}
}
