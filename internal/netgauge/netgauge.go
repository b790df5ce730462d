// Package netgauge reproduces the role Netgauge plays in the paper
// (Section III): assessing LogGP parameters by running micro-benchmarks
// over the MPI-level transport — not the raw verbs device — because that is
// what the authors could run on Niagara. The parameters it produces are
// therefore *measurements through a software stack*, and differ from the
// fabric's true cost model in exactly the way the paper discusses when its
// model predictions and hardware results diverge (Section V-B1).
//
// Method, loosely following Hoefler et al.'s LogGP assessment:
//
//   - one-way time from ping-pong round trips: ow(k) = RTT(k)/2;
//   - G from the slope of ow over two large (rendezvous) sizes;
//   - o_s as the CPU time the send call occupies the caller;
//   - g from the arrival spacing of a back-to-back message train;
//   - o_r as the receiver's per-message dispatch spacing when messages are
//     queued (completion-processing limited);
//   - L as the remainder ow(small) − o_s − o_r, clamped at zero.
//
// The probe is fixed: Run measures on a two-node Niagara-like cluster with
// an 8 B latency probe, a G slope between 64 KiB and 256 KiB, and a
// 16-message train; MeasureTable fits G between s and 2s at each size s.
// Only the round counts are settings.
package netgauge

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/ibv"
	"repro/internal/loggp"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// Config controls the measurement.
type Config struct {
	// Warmup and Iters are per-experiment round counts. Zero selects 5
	// and 20.
	Warmup int
	Iters  int
}

func (c Config) withDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = 5
	}
	if c.Iters == 0 {
		c.Iters = 20
	}
	return c
}

// trainLen is the message-train length for gap measurement.
const trainLen = 16

// probe holds one measurement's message sizes: small is the latency probe,
// a < b are the two sizes of the G slope.
type probe struct{ small, a, b int }

// header values of the echo protocol.
const (
	hdrPing  = 1
	hdrPong  = 2
	hdrTrain = 3
)

// Run measures one LogGP parameter set: latency with an 8 B probe, G from
// the slope between 64 KiB and 256 KiB.
func Run(cfg Config) (loggp.Params, error) {
	return run(cfg, probe{small: 8, a: 64 << 10, b: 256 << 10})
}

// run measures one LogGP parameter set with the given probe sizes on a
// two-node Niagara-like cluster.
func run(cfg Config, pr probe) (loggp.Params, error) {
	cfg = cfg.withDefaults()
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	t0 := ucx.New(w.Rank(0))
	t1 := ucx.New(w.Rank(1))

	buf0 := make([]byte, pr.b)
	buf1 := make([]byte, pr.b)
	mr0, err := w.Rank(0).PD().RegMR(buf0)
	if err != nil {
		return loggp.Params{}, err
	}
	mr1, err := w.Rank(1).PD().RegMR(buf1)
	if err != nil {
		return loggp.Params{}, err
	}

	// Rank 0 side state.
	pongs := 0
	var trainArrivals []sim.Time
	// pendingEcho hands rendezvous echo work from rank 1's control path to
	// its server proc (serialized by the engine).
	pendingEcho := 0
	t0.SetEagerHandler(func(p *sim.Proc, from int, header uint64, data []byte) {
		if header == hdrPong {
			pongs++
		}
	})
	t0.SetRndv(
		func(from int, header uint64, size int) (*ibv.MR, int, bool) { return mr0, 0, true },
		func(from int, header uint64, size int) {
			if header == hdrPong {
				pongs++
			}
		},
	)

	// Rank 1 is an echo/absorb server.
	echo := func(p *sim.Proc, size int) {
		mustSend(t1.SendMR(p, 0, hdrPong, mr1, 0, size))
	}
	t1.SetEagerHandler(func(p *sim.Proc, from int, header uint64, data []byte) {
		switch header {
		case hdrPing:
			echo(p, len(data))
		case hdrTrain:
			trainArrivals = append(trainArrivals, p.Now())
		}
	})
	t1.SetRndv(
		func(from int, header uint64, size int) (*ibv.MR, int, bool) { return mr1, 0, true },
		func(from int, header uint64, size int) {
			// Rendezvous completion is observed from the receiver's
			// control path; the echo needs a proc, so record and let the
			// server loop reply.
			pendingEcho = size
		},
	)

	var params loggp.Params

	err = w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			params = measure(p, r, t0, cfg, pr, mr0, &pongs, &trainArrivals)
		case 1:
			// Serve rendezvous echoes for as long as the measurement
			// runs; the server is a daemon, so the simulation ends when
			// rank 0 finishes.
			p.SetDaemon()
			for {
				r.WaitOn(p, func() bool { return pendingEcho > 0 })
				size := pendingEcho
				pendingEcho = 0
				echo(p, size)
			}
		}
	})
	if err != nil {
		return loggp.Params{}, err
	}
	if err := params.Validate(); err != nil {
		return params, fmt.Errorf("netgauge: implausible measurement: %w (%v)", err, params)
	}
	return params, nil
}

// measure runs on rank 0 and produces the parameter set.
func measure(p *sim.Proc, r *mpi.Rank, tr *ucx.Transport, cfg Config, pr probe, mr *ibv.MR, pongs *int, trainArrivals *[]sim.Time) loggp.Params {
	pingpong := func(size int) time.Duration {
		var total time.Duration
		for i := 0; i < cfg.Warmup+cfg.Iters; i++ {
			want := *pongs + 1
			start := p.Now()
			mustSend(tr.SendMR(p, 1, hdrPing, mr, 0, size))
			r.WaitOn(p, func() bool { return *pongs >= want })
			if i >= cfg.Warmup {
				total += p.Now().Sub(start)
			}
		}
		return total / time.Duration(cfg.Iters) / 2 // one-way
	}

	owSmall := pingpong(pr.small)
	owA := pingpong(pr.a)
	owB := pingpong(pr.b)
	g := float64(owB-owA) / float64(pr.b-pr.a)
	if g <= 0 {
		// Degenerate fit (can happen with tiny iteration counts); fall
		// back to the small/large slope.
		g = float64(owB-owSmall) / float64(pr.b-pr.small)
	}

	// Sender overhead: CPU time of the send call itself.
	start := p.Now()
	mustSend(tr.SendMR(p, 1, hdrTrain, mr, 0, pr.small))
	os := p.Now().Sub(start)

	// Message train: inter-arrival spacing at the receiver bounds both the
	// injection gap and the receiver's per-message processing.
	*trainArrivals = (*trainArrivals)[:0]
	for i := 0; i < trainLen; i++ {
		mustSend(tr.SendMR(p, 1, hdrTrain, mr, 0, pr.small))
	}
	// The arrivals are recorded by the peer's progress engine, which emits
	// no event on this rank; poll, as the real tool does.
	for len(*trainArrivals) < trainLen {
		r.Progress(p)
		p.Sleep(2 * time.Microsecond)
	}
	var spacing time.Duration
	n := 0
	for i := 1; i < len(*trainArrivals); i++ {
		spacing += (*trainArrivals)[i].Sub((*trainArrivals)[i-1])
		n++
	}
	if n > 0 {
		spacing /= time.Duration(n)
	}

	or := spacing
	l := owSmall - os - or
	if l < 0 {
		l = 0
	}
	return loggp.Params{L: l, Os: os, Or: or, Gap: spacing, G: g}
}

// MeasureTable measures a per-size parameter table: at each size s, G is
// fitted locally between s and 2s, and latency is probed at s, capped at
// 8 KiB.
func MeasureTable(cfg Config, sizes []int) (*loggp.Table, error) {
	tb := loggp.NewTable()
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("netgauge: size %d must be positive", s)
		}
		p, err := run(cfg, probe{small: min(s, 8<<10), a: s, b: 2 * s})
		if err != nil {
			return nil, fmt.Errorf("netgauge: size %d: %w", s, err)
		}
		tb.Set(s, p)
	}
	return tb, nil
}

// mustSend asserts a measurement send was accepted; the probe sizes are
// positive, so failure is a harness bug.
func mustSend(err error) {
	if err != nil {
		panic(fmt.Sprintf("netgauge: send: %v", err))
	}
}
