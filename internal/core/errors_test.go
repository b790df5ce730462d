package core

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestNewEngineUnknownProvider: verbs is the one transport, so any other
// provider name is the typed unknown-provider error, and "verbs" and the
// empty name both build.
func TestNewEngineUnknownProvider(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(3)})
	if _, err := NewEngine(w.Rank(0), "shm"); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("NewEngine(shm) error = %v, want one wrapping ErrUnknownProvider", err)
	}
	for i, name := range []string{"verbs", ""} {
		if _, err := NewEngine(w.Rank(i+1), name); err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
	}
}

// TestMalformedCreditError: a round-credit grant naming a request id the
// rank never allocated must record ErrMalformedCredit on the engine, not
// crash the process.
func TestMalformedCreditError(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		r.SendCtrl(1, ctrlCredit, creditMsg{peerReq: 4242})
		p.Sleep(0)
		r.Progress(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.eng[1].Err(); !errors.Is(got, ErrMalformedCredit) {
		t.Fatalf("Engine.Err = %v, want ErrMalformedCredit", got)
	}
}

// TestUnknownRequestError: an rinit reply for a request this rank never
// posted must record ErrUnknownRequest.
func TestUnknownRequestError(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		r.SendCtrl(1, ctrlRinit, rinitMsg{peerReq: 777})
		p.Sleep(0)
		r.Progress(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.eng[1].Err(); !errors.Is(got, ErrUnknownRequest) {
		t.Fatalf("Engine.Err = %v, want ErrUnknownRequest", got)
	}
}

// TestDuplicateArrivalError: the arrival bookkeeping must reject a user
// partition landing twice in one round with ErrDuplicateArrival, and an
// out-of-bounds arrival range with ErrPartitionRange. Both run on the
// completion drain, so the errors are pre-built values.
func TestDuplicateArrivalError(t *testing.T) {
	pr := &Precv{userParts: 4, arrived: make([]bool, 4)}
	if err := pr.markArrived(1, 2); err != nil {
		t.Fatalf("first arrival: %v", err)
	}
	if err := pr.markArrived(2, 1); !errors.Is(err, ErrDuplicateArrival) {
		t.Fatalf("duplicate arrival returned %v, want ErrDuplicateArrival", err)
	}
	if err := pr.markArrived(3, 2); !errors.Is(err, ErrPartitionRange) {
		t.Fatalf("out-of-range arrival returned %v, want ErrPartitionRange", err)
	}
	if err := pr.markArrived(-1, 1); !errors.Is(err, ErrPartitionRange) {
		t.Fatalf("negative arrival returned %v, want ErrPartitionRange", err)
	}
}

// TestErrorsStickAndSurface: once a protocol error is recorded it is
// sticky, and blocked Start/Wait calls observe it instead of hanging.
func TestErrorsStickAndSurface(t *testing.T) {
	e := newEnv()
	var startErr error
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			// A receive with no matching sender would normally park in
			// Start forever; a recorded engine error must release it.
			pr, err := e.eng[0].PrecvInit(p, make([]byte, 1024), 4, 1, 9, Options{Strategy: StrategyPLogGP})
			if err != nil {
				t.Error(err)
				return
			}
			p.Engine().Spawn("saboteur", func(sp *sim.Proc) {
				sp.Sleep(0)
				e.eng[0].fail(errRecvCompletion)
			})
			startErr = pr.Start(p)
		case 1:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(startErr, ErrCompletionStatus) {
		t.Fatalf("Start returned %v, want ErrCompletionStatus", startErr)
	}
	// Sticky: a later failure does not overwrite the first.
	e.eng[0].fail(errDuplicateArrival)
	if !errors.Is(e.eng[0].Err(), ErrCompletionStatus) {
		t.Fatalf("first error not sticky: %v", e.eng[0].Err())
	}
}
