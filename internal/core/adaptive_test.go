package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{StrategyBaseline, StrategyTuningTable,
		StrategyPLogGP, StrategyTimerPLogGP, StrategyAdaptive} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if got, err := ParseStrategy("timer"); err != nil || got != StrategyTimerPLogGP {
		t.Errorf("ParseStrategy(timer) = %v, %v", got, err)
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

func TestAdaptiveRoundTrip(t *testing.T) {
	roundTrip(t, Options{Strategy: StrategyAdaptive}, 16, 64<<10)
}

// newTestAdaptive builds a switcher directly, bypassing the engine: 16
// partitions over 2 QPs gives the candidate set {2, 4, 8, 16}.
func newTestAdaptive() *adaptiveState {
	const userParts, totalBytes = 16, 256 << 10
	plan := Plan{Transport: 4, GroupSize: userParts / 4, QPs: 2}
	return newAdaptiveState(Options{Strategy: StrategyAdaptive}, plan, userParts, totalBytes)
}

// feedRound drives one synthetic observed round through the recorder.
func feedRound(a *adaptiveState, offs []time.Duration, latency time.Duration) {
	base := sim.Time(1 << 20)
	a.beginRound(base)
	for i, off := range offs {
		a.recordArrival(i, base.Add(off))
	}
	a.noteDone(base.Add(latency))
	a.finishRound()
}

// stragglerOffsets: every partition arrives promptly except the last,
// which lags far behind — the pattern where the timer design wins.
func stragglerOffsets(n int, lag time.Duration) []time.Duration {
	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration(i) * time.Microsecond
	}
	offs[n-1] = lag
	return offs
}

func TestAdaptiveSwitchesToTimerOnStraggler(t *testing.T) {
	a := newTestAdaptive()
	round := 1
	for i := 0; i < 3*a.window; i++ {
		feedRound(a, stragglerOffsets(a.userParts, 5*time.Millisecond), 6*time.Millisecond)
		round++
		a.decide(round)
	}
	if a.mode != AdaptiveTimer {
		t.Fatalf("mode = %v after persistent straggler pattern, want timer", a.mode)
	}
	if a.delta < minAdaptiveDelta {
		t.Errorf("derived δ = %v below floor", a.delta)
	}
	if a.delta > 5*time.Millisecond {
		t.Errorf("derived δ = %v includes the laggard; the tail must stop at the second-to-last arrival", a.delta)
	}
	if len(a.switches) < 2 {
		t.Fatalf("switch history %v records no decision beyond the initial design", a.switches)
	}
}

func TestAdaptiveWarmupAndDwellGate(t *testing.T) {
	a := newTestAdaptive()
	a.dwell = 3
	offs := stragglerOffsets(a.userParts, 5*time.Millisecond)
	// During warm-up no decision may change the design.
	for r := 0; r < a.warmup-1; r++ {
		feedRound(a, offs, 6*time.Millisecond)
		if a.decide(r + 2) {
			t.Fatalf("switched during warm-up at round %d", r+2)
		}
	}
	// Past warm-up the pattern forces a switch; the dwell then blocks the
	// next one regardless of scores.
	feedRound(a, offs, 6*time.Millisecond)
	if !a.decide(a.warmup + 2) {
		t.Fatal("no switch after warm-up on a strong straggler pattern")
	}
	for r := 0; r < a.dwell-1; r++ {
		feedRound(a, stragglerOffsets(a.userParts, time.Microsecond), 200*time.Microsecond)
		if a.decide(a.warmup + 3 + r) {
			t.Fatalf("switched %d rounds after a switch, dwell is %d", r+1, a.dwell)
		}
	}
}

func TestAdaptiveHysteresisBlocksMarginalSwitch(t *testing.T) {
	// With an extreme hysteresis margin no observable improvement can
	// justify a switch.
	a := newTestAdaptive()
	a.hystPct = 99
	for i := 0; i < 4*a.window; i++ {
		feedRound(a, stragglerOffsets(a.userParts, 5*time.Millisecond), 6*time.Millisecond)
		if a.decide(i + 2) {
			t.Fatal("switched past a 99% hysteresis margin")
		}
	}
	if len(a.switches) != 1 {
		t.Fatalf("switch history %v, want only the initial design", a.switches)
	}
}

func TestAdaptiveRegretAccounting(t *testing.T) {
	a := newTestAdaptive()
	feedRound(a, stragglerOffsets(a.userParts, time.Microsecond), 100*time.Hour)
	s := a.stats()
	if s.ObservedNs != int64(100*time.Hour) {
		t.Errorf("ObservedNs = %d", s.ObservedNs)
	}
	if s.RegretNs != s.ObservedNs-s.PredictedNs {
		t.Errorf("RegretNs = %d, want observed-predicted = %d", s.RegretNs, s.ObservedNs-s.PredictedNs)
	}
	if s.RegretNs <= 0 {
		t.Error("a 100h round must show positive regret against any prediction")
	}
}

func TestAdaptiveRecordingSteadyStateZeroAllocs(t *testing.T) {
	// The observer path — beginRound, one recordArrival per partition,
	// noteDone, the ring fold, and a (non-switching) decision —
	// must allocate nothing in steady state.
	a := newTestAdaptive()
	offs := stragglerOffsets(a.userParts, 50*time.Microsecond)
	round := 1
	// Prime past warm-up so decide runs its full scoring path.
	for i := 0; i < a.warmup+a.dwell+1; i++ {
		feedRound(a, offs, 200*time.Microsecond)
		round++
		a.decide(round)
	}
	allocs := testing.AllocsPerRun(200, func() {
		base := sim.Time(1 << 20)
		a.beginRound(base)
		for i := 0; i < a.userParts; i++ {
			a.recordArrival(i, base.Add(offs[i]))
		}
		a.noteDone(base.Add(200 * time.Microsecond))
		a.finishRound()
		round++
		a.decide(round)
	})
	if allocs != 0 {
		t.Fatalf("adaptive observer path allocates %.2f/round, want 0", allocs)
	}
}

// runAdaptiveWorkload drives a multi-round adaptive send with a per-round,
// per-partition delay schedule and returns the final receive buffer and
// the sender's telemetry.
func runAdaptiveWorkload(t *testing.T, opts Options, rounds int, delay func(round, part int) time.Duration) ([]byte, AdaptiveStats) {
	t.Helper()
	e := newEnv()
	const parts, total = 16, 256 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	var stats AdaptiveStats
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, err := eng.PsendInit(p, src, parts, 1, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < rounds; round++ {
				fillBuf(src, byte(round*3+1))
				if err := ps.Start(p); err != nil {
					t.Error(err)
					return
				}
				g := sim.NewGroup(p.Engine())
				for i := 0; i < parts; i++ {
					i, round := i, round
					g.Add(1)
					p.Engine().Spawn("thread", func(tp *sim.Proc) {
						defer g.Done()
						tp.Sleep(delay(round, i))
						if err := ps.Pready(tp, i); err != nil {
							t.Error(err)
						}
					})
				}
				g.Wait(p)
				if err := ps.Wait(p); err != nil {
					t.Error(err)
					return
				}
				eng.Rank().Barrier(p)
			}
			stats = *ps.AdaptiveStats()
		},
		func(p *sim.Proc, eng *Engine) {
			pr, err := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < rounds; round++ {
				pr.Start(p)
				pr.Wait(p)
				eng.Rank().Barrier(p)
			}
		},
	)
	return dst, stats
}

func TestAdaptiveEndToEndSwitchesAndDelivers(t *testing.T) {
	opts := Options{Strategy: StrategyAdaptive, QPs: 2}
	const rounds = 24
	straggler := func(round, part int) time.Duration {
		if part == 13 {
			return 3 * time.Millisecond
		}
		return time.Duration(part) * time.Microsecond
	}
	dst, stats := runAdaptiveWorkload(t, opts, rounds, straggler)
	want := make([]byte, len(dst))
	fillBuf(want, byte((rounds-1)*3+1))
	if !bytes.Equal(dst, want) {
		t.Fatal("adaptive strategy corrupted the final round's data")
	}
	if stats.Rounds != rounds {
		t.Errorf("stats.Rounds = %d, want %d", stats.Rounds, rounds)
	}
	if stats.RecordedArrivals != int64(rounds*16) {
		t.Errorf("RecordedArrivals = %d, want %d", stats.RecordedArrivals, rounds*16)
	}
	if len(stats.Switches) < 2 {
		t.Errorf("adaptive never left the initial design on a persistent straggler pattern: %+v", stats.Switches)
	}
	if stats.Mode != AdaptiveTimer {
		t.Errorf("final mode = %v on a straggler pattern, want timer", stats.Mode)
	}
}

func TestAdaptiveDeterministicSwitchSequence(t *testing.T) {
	// Identical workloads must produce identical switch histories and
	// buffers — the adaptive strategy's inputs are virtual timestamps, so
	// re-running the simulation cannot diverge.
	opts := Options{Strategy: StrategyAdaptive, QPs: 2}
	delay := func(round, part int) time.Duration {
		// A mixed schedule: bursty early rounds, straggler later ones.
		if round%2 == 0 {
			return time.Duration(part%4) * 10 * time.Microsecond
		}
		if part == round%16 {
			return 2 * time.Millisecond
		}
		return time.Duration(part) * time.Microsecond
	}
	dstA, statsA := runAdaptiveWorkload(t, opts, 20, delay)
	dstB, statsB := runAdaptiveWorkload(t, opts, 20, delay)
	if !statsA.Equal(statsB) {
		t.Fatalf("switch histories diverged:\n%+v\n%+v", statsA, statsB)
	}
	if !bytes.Equal(dstA, dstB) {
		t.Fatal("final buffers diverged between identical runs")
	}
}

func TestAdaptiveStatsNilForStatic(t *testing.T) {
	e := newEnv()
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, 4, 1, 0, Options{Strategy: StrategyPLogGP})
			if ps.AdaptiveStats() != nil {
				t.Error("static strategy reports adaptive stats")
			}
			ps.Start(p)
			ps.PreadyRange(p, 0, 4)
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, 4, 0, 0, Options{})
			pr.Start(p)
			pr.Wait(p)
		},
	)
}
