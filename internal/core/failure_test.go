package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestReceiverQPErrorSurfaces: forcing a receiver QP into the error state
// mid-round must surface as ErrCompletionStatus from the receiver's Wait
// (flushed receive WRs report error status through the completion
// callback, which records on the engine) rather than a silent hang or
// corruption.
func TestReceiverQPErrorSurfaces(t *testing.T) {
	e := newEnv()
	const parts, total = 8, 64 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP, TransportParts: 4}

	var waitErr error
	_ = e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, err := e.eng[0].PsendInit(p, src, parts, 1, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			ps.PreadyRange(p, 0, parts)
			ps.Wait(p)
		case 1:
			pr, err := e.eng[1].PrecvInit(p, dst, parts, 0, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			// Sabotage: flip the first receive QP to the error state
			// before data lands.
			pr.qps[0].SetError()
			waitErr = pr.Wait(p)
		}
	})
	if waitErr == nil {
		t.Fatal("QP failure produced no error")
	}
	if !errors.Is(waitErr, ErrCompletionStatus) {
		t.Fatalf("unexpected failure surface: %v, want ErrCompletionStatus", waitErr)
	}
	if !errors.Is(e.eng[1].Err(), ErrCompletionStatus) {
		t.Fatalf("Engine.Err = %v, want ErrCompletionStatus", e.eng[1].Err())
	}
}

// TestPreadyBeforeStartErrors: the MPI standard forbids Pready outside an
// active round; the implementation reports it as a usage error.
func TestPreadyBeforeStartErrors(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		ps, _ := e.eng[0].PsendInit(p, make([]byte, 1024), 4, 1, 0, Options{Strategy: StrategyPLogGP})
		if err := ps.Pready(p, 0); !errors.Is(err, ErrPartitionState) {
			t.Errorf("Pready before Start: err = %v, want ErrPartitionState", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTimerFiresAtExactCompletionInstant: the last arrival and the δ
// expiry landing on the same virtual instant must not double-send.
func TestTimerFiresAtExactCompletionInstant(t *testing.T) {
	e := newEnv()
	const parts, total = 4, 16 << 10
	src := make([]byte, total)
	fillBuf(src, 1)
	dst := make([]byte, total)
	delta := 100 * time.Microsecond
	opts := Options{Strategy: StrategyTimerPLogGP, TransportParts: 1, Delta: delta}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, _ := eng.PsendInit(p, src, parts, 1, 1, opts)
			ps.Start(p)
			g := sim.NewGroup(p.Engine())
			startAt := p.Now()
			for i := 0; i < parts; i++ {
				i := i
				g.Add(1)
				p.Engine().Spawn("t", func(tp *sim.Proc) {
					defer g.Done()
					if i == parts-1 {
						// Arrive exactly when the first thread's timer
						// fires (first Pready lands a PreadyOverhead after
						// the spawn instant; align to the δ boundary).
						tp.Sleep(startAt.Sub(0) - tp.Now().Sub(0) + delta)
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
			pr.Wait(p)
		},
	)
	// Duplicate sends would have panicked in postRun/markArrived; data
	// integrity is the final check.
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatal("data mismatch at same-instant fire/completion")
		}
	}
}

// TestTestReportsRoundState covers MPI_Test on both sides of a match:
// Test reports false before the round's data has landed and true once it
// has, and after a QP fails mid-round the recorded engine error comes back
// as (false, err).
func TestTestReportsRoundState(t *testing.T) {
	e := newEnv()
	const parts, total = 4, 16 << 10
	src := make([]byte, total)
	fillBuf(src, 3)
	dst := make([]byte, total)
	opts := Options{Strategy: StrategyPLogGP}
	// poll calls test every microsecond of virtual time until it reports
	// completion or an error, and returns what the last call reported.
	poll := func(p *sim.Proc, test func(*sim.Proc) (bool, error)) (bool, error) {
		for i := 0; i < 10000; i++ {
			if ok, err := test(p); ok || err != nil {
				return ok, err
			}
			p.Sleep(time.Microsecond)
		}
		return false, nil
	}
	e.runPair(t,
		func(p *sim.Proc, eng *Engine) {
			ps, err := eng.PsendInit(p, src, parts, 1, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			if ok, err := ps.Test(p); ok || err != nil {
				t.Errorf("sender Test before Pready = (%v, %v), want (false, nil)", ok, err)
			}
			ps.PreadyRange(p, 0, parts)
			if ok, err := poll(p, ps.Test); !ok || err != nil {
				t.Errorf("sender Test after the round = (%v, %v), want (true, nil)", ok, err)
			}

			ps.Start(p)
			ps.PreadyRange(p, 0, parts)
			ps.qps[0].SetError()
			if ok, err := poll(p, ps.Test); ok || !errors.Is(err, ErrCompletionStatus) {
				t.Errorf("sender Test after a QP error = (%v, %v), want (false, ErrCompletionStatus)", ok, err)
			}
		},
		func(p *sim.Proc, eng *Engine) {
			pr, err := eng.PrecvInit(p, dst, parts, 0, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			if ok, err := pr.Test(p); ok || err != nil {
				t.Errorf("receiver Test before the data = (%v, %v), want (false, nil)", ok, err)
			}
			if ok, err := poll(p, pr.Test); !ok || err != nil {
				t.Errorf("receiver Test after the data = (%v, %v), want (true, nil)", ok, err)
			}
			if !bytes.Equal(dst, src) {
				t.Error("receiver Test reported completion before the data landed")
			}

			pr.Start(p)
			pr.qps[0].SetError()
			if ok, err := poll(p, pr.Test); ok || !errors.Is(err, ErrCompletionStatus) {
				t.Errorf("receiver Test after a QP error = (%v, %v), want (false, ErrCompletionStatus)", ok, err)
			}
		},
	)
}
