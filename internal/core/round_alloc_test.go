package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// mallocsDuring returns the heap allocations made while fn runs n times,
// counted on one P as testing.AllocsPerRun counts them. Unlike
// AllocsPerRun it returns the total, so one allocation in n runs shows.
func mallocsDuring(n int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRoundSteadyStateZeroAllocs runs a two-rank partitioned exchange of
// 16 partitions over 64 KiB, one sender thread per partition, under the
// aggregating strategies. Once warm, a round allocates nothing: Start on
// both ranks, the 16 Preadys and the posts they trigger, every send and
// receive completion drained by the progress engine, both Waits and the
// closing barrier.
func TestRoundSteadyStateZeroAllocs(t *testing.T) {
	const parts, size, warmup, rounds = 16, 64 << 10, 50, 500
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"ploggp", Options{Strategy: StrategyPLogGP}},
		{"timer-ploggp", Options{Strategy: StrategyTimerPLogGP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			src, dst := make([]byte, size), make([]byte, size)
			fillBuf(src, 5)
			var mallocs uint64
			var roundErr error
			e.runPair(t,
				func(p *sim.Proc, eng *Engine) {
					ps, err := eng.PsendInit(p, src, parts, 1, 1, tc.opts)
					if err != nil {
						t.Error(err)
						return
					}
					// The group and the thread bodies are built once and
					// reused every round, as an application's thread pool
					// would be.
					g := sim.NewGroup(p.Engine())
					threads := make([]func(*sim.Proc), parts)
					for i := range threads {
						threads[i] = func(tp *sim.Proc) {
							defer g.Done()
							if err := ps.Pready(tp, i); err != nil && roundErr == nil {
								roundErr = err
							}
						}
					}
					round := func() {
						if err := ps.Start(p); err != nil && roundErr == nil {
							roundErr = err
						}
						for _, th := range threads {
							g.Add(1)
							p.Engine().Spawn("thread", th)
						}
						g.Wait(p)
						if err := ps.Wait(p); err != nil && roundErr == nil {
							roundErr = err
						}
						eng.Rank().Barrier(p)
					}
					for i := 0; i < warmup; i++ {
						round()
					}
					mallocs = mallocsDuring(rounds, round)
				},
				func(p *sim.Proc, eng *Engine) {
					pr, err := eng.PrecvInit(p, dst, parts, 0, 1, tc.opts)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < warmup+rounds; i++ {
						if err := pr.Start(p); err != nil && roundErr == nil {
							roundErr = err
						}
						if err := pr.Wait(p); err != nil && roundErr == nil {
							roundErr = err
						}
						eng.Rank().Barrier(p)
					}
				},
			)
			if roundErr != nil {
				t.Fatal(roundErr)
			}
			if !bytes.Equal(dst, src) {
				t.Fatal("receive buffer differs from the send buffer")
			}
			if mallocs != 0 {
				t.Fatalf("%d rounds after %d warm-up rounds allocated %d times, want 0", rounds, warmup, mallocs)
			}
		})
	}
}
