package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// env is a two-rank world with one partitioned engine per rank.
type env struct {
	w   *mpi.World
	eng []*Engine
}

func newEnv() *env {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	e := &env{w: w}
	for i := 0; i < 2; i++ {
		eng, err := NewEngine(w.Rank(i), "")
		if err != nil {
			panic(err)
		}
		e.eng = append(e.eng, eng)
	}
	return e
}

func fillBuf(b []byte, seed byte) {
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
}

// runPair executes sender/receiver bodies on ranks 0 and 1.
func (e *env) runPair(t *testing.T, send, recv func(p *sim.Proc, eng *Engine)) {
	t.Helper()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() == 0 {
			send(p, e.eng[0])
		} else {
			recv(p, e.eng[1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImmRoundTrip(t *testing.T) {
	f := func(start, count uint16) bool {
		s, c := DecodeImm(EncodeImm(start, count))
		return s == start && c == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The paper's layout: start in the high half.
	if EncodeImm(1, 0) != 1<<16 {
		t.Fatalf("EncodeImm(1,0) = %#x", EncodeImm(1, 0))
	}
}

// roundTrip runs one full round under the given options and checks data
// integrity and completion on both sides.
func roundTrip(t *testing.T, opts Options, parts, total int) {
	t.Helper()
	e := newEnv()
	src := make([]byte, total)
	fillBuf(src, 0x5a)
	dst := make([]byte, total)

	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, err := eng.PsendInit(p, src, parts, 1, 7, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			for i := 0; i < parts; i++ {
				ps.Pready(p, i)
			}
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, err := eng.PrecvInit(p, dst, parts, 0, 7, opts)
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			pr.Wait(p)
			if pr.Arrived() != parts {
				t.Errorf("arrived %d of %d", pr.Arrived(), parts)
			}
		},
	)
	if !bytes.Equal(dst, src) {
		t.Fatalf("%v: receive buffer mismatch", opts.Strategy)
	}
}

func TestRoundTripAllStrategies(t *testing.T) {
	table := NewTuningTable()
	table.Set(TuningKey{UserParts: 16, Bytes: 1}, TuningValue{Transport: 4, QPs: 2})
	cases := []struct {
		name string
		opts Options
	}{
		{"baseline", Options{Strategy: StrategyBaseline}},
		{"ploggp", Options{Strategy: StrategyPLogGP}},
		{"timer", Options{Strategy: StrategyTimerPLogGP, Delta: 50 * time.Microsecond}},
		{"tuning", Options{Strategy: StrategyTuningTable, Table: table}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			roundTrip(t, c.opts, 16, 64<<10)
		})
	}
}

func TestRoundTripSizesAndCounts(t *testing.T) {
	for _, parts := range []int{1, 2, 8, 32, 128} {
		for _, total := range []int{4 << 10, 1 << 20} {
			roundTrip(t, Options{Strategy: StrategyPLogGP}, parts, total)
			roundTrip(t, Options{Strategy: StrategyBaseline}, parts, total)
		}
	}
}

func TestPersistentRounds(t *testing.T) {
	// Restarting reuses buffers; data changed between rounds must arrive.
	e := newEnv()
	const parts, total, rounds = 8, 32 << 10, 5
	src := make([]byte, total)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	var mismatches int

	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, err := eng.PsendInit(p, src, parts, 1, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < rounds; round++ {
				fillBuf(src, byte(round))
				ps.Start(p)
				ps.PreadyRange(p, 0, parts)
				ps.Wait(p)
				// Round-robin with the receiver via a barrier so the next
				// fill does not race the in-flight data.
				eng.Rank().Barrier(p)
			}
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
				want := make([]byte, total)
				fillBuf(want, byte(round))
				if !bytes.Equal(dst, want) {
					mismatches++
				}
				eng.Rank().Barrier(p)
			}
		},
	)
	if mismatches != 0 {
		t.Fatalf("%d rounds delivered wrong data", mismatches)
	}
}

func TestReversePreadyOrder(t *testing.T) {
	e := newEnv()
	const parts, total = 16, 64 << 10
	src := make([]byte, total)
	fillBuf(src, 3)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyTimerPLogGP, Delta: 20 * time.Microsecond}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.Start(p)
			for i := parts - 1; i >= 0; i-- {
				ps.Pready(p, i)
			}
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			pr.Start(p)
			pr.Wait(p)
		},
	)
	if !bytes.Equal(dst, src) {
		t.Fatal("reverse-order Pready corrupted data")
	}
}

func TestAggregationMessageCounts(t *testing.T) {
	// PLogGP with a forced transport count of 4 posts exactly 4 WRs per
	// round when all partitions are marked ready together; the baseline
	// posts one message per user partition.
	count := func(opts Options) int64 {
		e := newEnv()
		const parts, total = 32, 1 << 20
		src := make([]byte, total)
		dst := make([]byte, total)
		e.runPair(t,
			func(p *sim.Proc, eng *Engine) {
				ps, err := eng.PsendInit(p, src, parts, 1, 1, opts)
				if err != nil {
					t.Error(err)
					return
				}
				ps.Start(p)
				ps.PreadyRange(p, 0, parts)
				ps.Wait(p)
			},
			func(p *sim.Proc, eng *Engine) {
				pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
				pr.Start(p)
				pr.Wait(p)
			},
		)
		return e.w.Rank(0).Node().HCA.Port().MessagesSent()
	}
	aggregated := count(Options{Strategy: StrategyPLogGP, TransportParts: 4})
	if aggregated != 4 {
		t.Errorf("forced 4 transport partitions posted %d fabric messages, want 4", aggregated)
	}
	baseline := count(Options{Strategy: StrategyBaseline})
	// Rendezvous partitions (32 KiB each) cost one RDMA write per
	// partition on the data QP.
	if baseline < 32 {
		t.Errorf("baseline posted %d fabric messages, want >= 32", baseline)
	}
}

func TestTimerEarlyBird(t *testing.T) {
	// Seven partitions arrive promptly, the laggard 5 ms later. With
	// δ=100µs the early partitions must be visible at the receiver long
	// before the laggard, and the wire must carry exactly two WRs
	// (run [0,7) and run [7,8)).
	e := newEnv()
	const parts, total = 8, 256 << 10
	src := make([]byte, total)
	fillBuf(src, 9)
	dst := make([]byte, total)
	opts := Options{
		Strategy:       StrategyTimerPLogGP,
		TransportParts: 1, // a single group, so the timer does the splitting
		Delta:          100 * time.Microsecond,
	}
	var earlyArrived, laggardEarly bool
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, err := eng.PsendInit(p, src, parts, 1, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			g := sim.NewGroup(p.Engine())
			for i := 0; i < parts; i++ {
				i := i
				g.Add(1)
				p.Engine().Spawn("thread", func(tp *sim.Proc) {
					defer g.Done()
					if i == parts-1 {
						tp.Sleep(5 * time.Millisecond)
					}
					ps.Pready(tp, i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, err := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			// Probe at 2 ms: early partitions must be there, laggard not.
			p.Sleep(2 * time.Millisecond)
			earlyArrived = true
			for i := 0; i < parts-1; i++ {
				if ok, _ := pr.Parrived(p, i); !ok {
					earlyArrived = false
				}
			}
			laggardEarly, _ = pr.Parrived(p, parts-1)
			pr.Wait(p)
		},
	)
	if !earlyArrived {
		t.Error("early partitions not visible at receiver before the laggard")
	}
	if laggardEarly {
		t.Error("laggard partition arrived before it was marked ready")
	}
	if got := e.w.Rank(0).Node().HCA.Port().MessagesSent(); got != 2 {
		t.Errorf("timer aggregator posted %d WRs, want 2 (early run + laggard)", got)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("data mismatch")
	}
}

func TestPLogGPHoldsBackUntilGroupComplete(t *testing.T) {
	// Without the timer, the PLogGP aggregator waits for the whole group:
	// nothing is on the wire until the laggard arrives, and exactly one WR
	// carries all partitions.
	e := newEnv()
	const parts, total = 8, 256 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP, TransportParts: 1}
	var arrivedAt2ms int
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.Start(p)
			g := sim.NewGroup(p.Engine())
			for i := 0; i < parts; i++ {
				i := i
				g.Add(1)
				p.Engine().Spawn("thread", func(tp *sim.Proc) {
					defer g.Done()
					if i == parts-1 {
						tp.Sleep(5 * time.Millisecond)
					}
					ps.Pready(tp, i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			pr.Start(p)
			p.Sleep(2 * time.Millisecond)
			for i := 0; i < parts; i++ {
				if ok, _ := pr.Parrived(p, i); ok {
					arrivedAt2ms++
				}
			}
			pr.Wait(p)
		},
	)
	if arrivedAt2ms != 0 {
		t.Errorf("%d partitions arrived before the laggard; PLogGP must hold the group", arrivedAt2ms)
	}
	if got := e.w.Rank(0).Node().HCA.Port().MessagesSent(); got != 1 {
		t.Errorf("PLogGP posted %d WRs, want 1", got)
	}
}

func TestTimerLargeDeltaBehavesLikePLogGP(t *testing.T) {
	// δ much larger than the laggard's delay: the last arrival sends the
	// whole group in one WR and the sleeper does nothing (δ_a in Fig. 5).
	e := newEnv()
	const parts, total = 8, 64 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	opts := Options{
		Strategy:       StrategyTimerPLogGP,
		TransportParts: 1,
		Delta:          50 * time.Millisecond,
	}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.Start(p)
			g := sim.NewGroup(p.Engine())
			for i := 0; i < parts; i++ {
				i := i
				g.Add(1)
				p.Engine().Spawn("thread", func(tp *sim.Proc) {
					defer g.Done()
					tp.Sleep(time.Duration(i) * 10 * time.Microsecond)
					ps.Pready(tp, i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			pr.Start(p)
			pr.Wait(p)
		},
	)
	if got := e.w.Rank(0).Node().HCA.Port().MessagesSent(); got != 1 {
		t.Errorf("timer with huge δ posted %d WRs, want 1", got)
	}
}

func TestParrivedNonBlocking(t *testing.T) {
	e := newEnv()
	const parts, total = 4, 16 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.Start(p)
			p.Sleep(time.Millisecond)
			ps.PreadyRange(p, 0, parts)
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			pr.Start(p)
			// Immediately after Start nothing has arrived; the call must
			// return false, not block.
			before := p.Now()
			if ok, _ := pr.Parrived(p, 0); ok {
				t.Error("Parrived true before any Pready")
			}
			if p.Now().Sub(before) > 100*time.Microsecond {
				t.Error("Parrived blocked")
			}
			pr.Wait(p)
			if ok, _ := pr.Parrived(p, 0); !ok {
				t.Error("Parrived false after Wait")
			}
		},
	)
}

func TestMultipleRequestsMatchInOrder(t *testing.T) {
	// Two sends with the same tag match the two receives in posted order.
	e := newEnv()
	const total = 4 << 10
	srcA := make([]byte, total)
	srcB := make([]byte, total)
	fillBuf(srcA, 0xAA)
	fillBuf(srcB, 0xBB)
	dstFirst := make([]byte, total)
	dstSecond := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			psA, _ := eng.PsendInit(p, srcA, 4, 1, 5, opts)
			psB, _ := eng.PsendInit(p, srcB, 4, 1, 5, opts)
			for _, ps := range []*Psend{psA, psB} {
				ps.Start(p)
				ps.PreadyRange(p, 0, 4)
			}
			psA.Wait(p)
			psB.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			prFirst, _ := eng.PrecvInit(p, dstFirst, 4, 0, 5, opts)
			prSecond, _ := eng.PrecvInit(p, dstSecond, 4, 0, 5, opts)
			prFirst.Start(p)
			prSecond.Start(p)
			prFirst.Wait(p)
			prSecond.Wait(p)
		},
	)
	if !bytes.Equal(dstFirst, srcA) || !bytes.Equal(dstSecond, srcB) {
		t.Fatal("matching order violated: buffers crossed")
	}
}

func TestDifferentTagsDoNotCross(t *testing.T) {
	e := newEnv()
	const total = 4 << 10
	src3 := make([]byte, total)
	src9 := make([]byte, total)
	fillBuf(src3, 3)
	fillBuf(src9, 9)
	dst3 := make([]byte, total)
	dst9 := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps9, _ := eng.PsendInit(p, src9, 4, 1, 9, opts)
			ps3, _ := eng.PsendInit(p, src3, 4, 1, 3, opts)
			for _, ps := range []*Psend{ps9, ps3} {
				ps.Start(p)
				ps.PreadyRange(p, 0, 4)
				ps.Wait(p)
			}
		},
		func(p *sim.Proc, eng *Engine) {
			pr3, _ := eng.PrecvInit(p, dst3, 4, 0, 3, opts)
			pr9, _ := eng.PrecvInit(p, dst9, 4, 0, 9, opts)
			pr3.Start(p)
			pr9.Start(p)
			pr3.Wait(p)
			pr9.Wait(p)
		},
	)
	if !bytes.Equal(dst3, src3) || !bytes.Equal(dst9, src9) {
		t.Fatal("tag separation violated")
	}
}

func TestInitValidation(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		eng := e.eng[0]
		if _, err := eng.PsendInit(p, nil, 1, 1, 0, Options{}); err == nil {
			t.Error("empty buffer accepted")
		}
		if _, err := eng.PsendInit(p, make([]byte, 100), 3, 1, 0, Options{}); err == nil {
			t.Error("indivisible partitioning accepted")
		}
		if _, err := eng.PsendInit(p, make([]byte, 128), 4, 99, 0, Options{}); err == nil {
			t.Error("out-of-range destination accepted")
		}
		if _, err := eng.PrecvInit(p, make([]byte, 128), 4, -1, 0, Options{}); err == nil {
			t.Error("negative source accepted")
		}
		if _, err := eng.PsendInit(p, make([]byte, 128), 4, 1, 0, Options{Strategy: StrategyTuningTable}); err == nil {
			t.Error("tuning strategy without table accepted")
		}
		if _, err := eng.PsendInit(p, make([]byte, 128), 4, 1, 0, Options{TransportParts: 8}); err == nil {
			t.Error("transport > user partitions accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPreadyMisuseErrors(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		eng := e.eng[r.ID()]
		if r.ID() == 0 {
			ps, _ := eng.PsendInit(p, make([]byte, 1024), 4, 1, 0, Options{Strategy: StrategyPLogGP})
			ps.Start(p)
			if err := ps.Pready(p, 1); err != nil {
				t.Errorf("first Pready: %v", err)
			}
			if err := ps.Pready(p, 1); !errors.Is(err, ErrPartitionState) {
				t.Errorf("double Pready: err = %v, want ErrPartitionState", err)
			}
			if err := ps.Pready(p, -1); !errors.Is(err, ErrPartitionRange) {
				t.Errorf("Pready(-1): err = %v, want ErrPartitionRange", err)
			}
			if err := ps.Pready(p, 4); !errors.Is(err, ErrPartitionRange) {
				t.Errorf("Pready(4): err = %v, want ErrPartitionRange", err)
			}
			if err := ps.PreadyRange(p, 2, 9); !errors.Is(err, ErrPartitionRange) {
				t.Errorf("PreadyRange(2,9): err = %v, want ErrPartitionRange", err)
			}
			if err := ps.PreadyList(p, []int{2, 2}); !errors.Is(err, ErrPartitionState) {
				t.Errorf("PreadyList duplicate: err = %v, want ErrPartitionState", err)
			}
			// Finish the round so the receiver is not stranded.
			if err := ps.PreadyRange(p, 0, 4); err != nil && !errors.Is(err, ErrPartitionState) {
				t.Errorf("final PreadyRange: %v", err)
			}
			for i := 0; i < 4; i++ {
				ps.Pready(p, i)
			}
			ps.Wait(p)
		} else {
			pr, _ := eng.PrecvInit(p, make([]byte, 1024), 4, 0, 0, Options{})
			pr.Start(p)
			if _, err := pr.Parrived(p, 17); !errors.Is(err, ErrPartitionRange) {
				t.Errorf("Parrived(17): err = %v, want ErrPartitionRange", err)
			}
			pr.Wait(p)
		}
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	for s := StrategyBaseline; s <= StrategyTimerPLogGP+1; s++ {
		if s.String() == "" {
			t.Errorf("empty string for strategy %d", s)
		}
	}
}
