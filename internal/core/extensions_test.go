package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestPreadyList(t *testing.T) {
	e := newEnv()
	const parts, total = 8, 32 << 10
	src := make([]byte, total)
	fillBuf(src, 0x11)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.Start(p)
			ps.PreadyList(p, []int{3, 1, 7, 0, 5, 2, 6, 4})
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			pr.Start(p)
			pr.Wait(p)
		},
	)
	if !bytes.Equal(dst, src) {
		t.Fatal("PreadyList round trip corrupted data")
	}
}

func TestPreadyRangeValidation(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		ps, _ := e.eng[0].PsendInit(p, make([]byte, 1024), 4, 1, 0, Options{Strategy: StrategyPLogGP})
		if err := ps.PreadyRange(p, 2, 9); !errors.Is(err, ErrPartitionRange) {
			t.Errorf("invalid PreadyRange: err = %v, want ErrPartitionRange", err)
		}
		p.Exit()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPbufPrepareMovesHandshakeOutOfStart(t *testing.T) {
	// With PbufPrepare, the first Start only waits for the round credit;
	// the QP/rkey exchange has already completed.
	e := newEnv()
	const parts, total = 4, 16 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	var prepDone, startDone sim.Time
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.PbufPrepare(p)
			prepDone = p.Now()
			ps.PbufPrepare(p) // idempotent
			ps.Start(p)
			startDone = p.Now()
			ps.PreadyRange(p, 0, parts)
			ps.Wait(p)
		},
		func(p *sim.Proc, eng *Engine) {
			pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			pr.Start(p)
			pr.Wait(p)
		},
	)
	if prepDone == 0 || startDone <= prepDone {
		t.Fatalf("prep at %v, start at %v", prepDone, startDone)
	}
}

func TestUseInlineSpeedsTinyPartitions(t *testing.T) {
	// 64-byte transport partitions fit the 220-byte inline limit; with
	// UseInline the round completes strictly sooner.
	run := func(inline bool) time.Duration {
		e := newEnv()
		const parts, total = 4, 256
		src := make([]byte, total)
		dst := make([]byte, total)
		opts := Options{Strategy: StrategyPLogGP, TransportParts: 4, UseInline: inline}
		var done sim.Time
		e.runPair(t,
			func(p *sim.Proc, eng *Engine) {
				ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
				ps.Start(p)
				ps.PreadyRange(p, 0, parts)
				ps.Wait(p)
			},
			func(p *sim.Proc, eng *Engine) {
				pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
				pr.Start(p)
				pr.Wait(p)
				done = p.Now()
			},
		)
		return done.Duration()
	}
	plain := run(false)
	inlined := run(true)
	if inlined >= plain {
		t.Fatalf("inline round (%v) not faster than plain (%v)", inlined, plain)
	}
}

func TestMaxOutstandingOverrideThrottles(t *testing.T) {
	// A window of 1 forces stop-and-wait between transport partitions.
	// The effect only binds when the ack round trip exceeds the per-QP
	// injection pacing, i.e. for small messages — use 1 KiB partitions.
	run := func(window int) time.Duration {
		e := newEnv()
		const parts, total = 16, 16 << 10
		src := make([]byte, total)
		dst := make([]byte, total)
		opts := Options{
			Strategy:            StrategyPLogGP,
			TransportParts:      16,
			QPs:                 1,
			MaxOutstandingPerQP: window,
		}
		var done sim.Time
		e.runPair(t,
			func(p *sim.Proc, eng *Engine) {
				ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
				ps.Start(p)
				ps.PreadyRange(p, 0, parts)
				ps.Wait(p)
			},
			func(p *sim.Proc, eng *Engine) {
				pr, _ := eng.PrecvInit(p, dst, parts, 0, 1, opts)
				pr.Start(p)
				pr.Wait(p)
				done = p.Now()
			},
		)
		if !bytes.Equal(dst, src) {
			t.Fatal("data mismatch")
		}
		return done.Duration()
	}
	narrow := run(1)
	wide := run(16)
	if narrow <= wide {
		t.Fatalf("window=1 round (%v) not slower than window=16 (%v)", narrow, wide)
	}
}

// TestTimerRandomArrivalsProperty: under arbitrary arrival orders, delays,
// and δ values, the timer aggregator must deliver every partition exactly
// once with intact data (duplicate arrivals panic in markArrived, so a
// clean run plus a byte-level check is a full invariant check).
func TestTimerRandomArrivalsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		parts := 1 << (1 + rng.Intn(5)) // 2..32
		transport := 1 << rng.Intn(3)   // 1..4
		if transport > parts {
			transport = parts
		}
		delta := time.Duration(1+rng.Intn(200)) * time.Microsecond
		total := parts * (64 << rng.Intn(6)) // 64B..2KiB per partition

		e := newEnv()
		src := make([]byte, total)
		fillBuf(src, byte(trial))
		dst := make([]byte, total)
		opts := Options{
			Strategy:       StrategyTimerPLogGP,
			TransportParts: transport,
			Delta:          delta,
		}
		delays := make([]time.Duration, parts)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(500)) * time.Microsecond
		}
		e.runPair(t,
			func(p *sim.Proc, eng *Engine) {
				ps, err := eng.PsendInit(p, src, parts, 1, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				ps.Start(p)
				g := sim.NewGroup(p.Engine())
				for i := 0; i < parts; i++ {
					i := i
					g.Add(1)
					p.Engine().Spawn("t", func(tp *sim.Proc) {
						defer g.Done()
						tp.Sleep(delays[i])
						ps.Pready(tp, i)
					})
				}
				g.Wait(p)
				ps.Wait(p)
			},
			func(p *sim.Proc, eng *Engine) {
				pr, err := eng.PrecvInit(p, dst, parts, 0, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				pr.Start(p)
				pr.Wait(p)
			},
		)
		if !bytes.Equal(dst, src) {
			t.Fatalf("trial %d (parts=%d transport=%d δ=%v): data mismatch",
				trial, parts, transport, delta)
		}
	}
}
