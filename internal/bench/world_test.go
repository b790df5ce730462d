package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// setupSweepJob runs the repository benchmark's setup-only sweep3d job on
// a side × side grid over 2 shards: the world, one partitioned engine per
// rank, every rank's wavefront PsendInit/PrecvInit pairs, and the setup
// barrier. The job ends at the barrier, so no payload moves and every
// request shares one send and one receive buffer. It returns the world
// and engines so a caller can keep the job's state live.
func setupSweepJob(side int) (*mpi.World, []*core.Engine, error) {
	return sweepJob(side, 0, nil)
}

// sweepJobBytes is the message size of the sweep jobs below, as in the
// repository benchmark's sweep3d-1024 workload.
const sweepJobBytes = 16 << 10

// sweepJob is setupSweepJob followed by the given number of rounds: after
// the setup barrier every rank starts its receives, then its sends, marks
// every send partition ready and waits for all of its requests. Both of a
// rank's receives land in rbufs[rank], or in one buffer every request
// shares when rbufs is nil; the send buffer is shared, as only the fabric
// reads it.
func sweepJob(side, rounds int, rbufs [][]byte) (*mpi.World, []*core.Engine, error) {
	const threads = 4
	sbuf, rbuf := make([]byte, sweepJobBytes), make([]byte, sweepJobBytes)
	opts := core.Options{Strategy: core.StrategyPLogGP}
	cfg := cluster.NiagaraConfig(side * side)
	cfg.Shards = 2
	w, engines, err := newWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	err = w.Run(func(p *sim.Proc, r *mpi.Rank) {
		id := r.ID()
		x, y := id%side, id/side
		var sends []*core.Psend
		var recvs []*core.Precv
		for _, l := range gridPatterns[Sweep3D].links {
			nx, ny := x+l.dx, y+l.dy
			if nx < 0 || nx >= side || ny < 0 || ny >= side {
				continue
			}
			peer := ny*side + nx
			if l.send {
				ps, err := engines[id].PsendInit(p, sbuf, threads, peer, l.tag, opts)
				if err != nil {
					panic(err)
				}
				sends = append(sends, ps)
			} else {
				buf := rbuf
				if rbufs != nil {
					buf = rbufs[id]
				}
				pr, err := engines[id].PrecvInit(p, buf, threads, peer, l.tag, opts)
				if err != nil {
					panic(err)
				}
				recvs = append(recvs, pr)
			}
		}
		r.Barrier(p)
		for round := 0; round < rounds; round++ {
			for _, pr := range recvs {
				if err := pr.Start(p); err != nil {
					panic(err)
				}
			}
			for _, ps := range sends {
				if err := ps.Start(p); err != nil {
					panic(err)
				}
				if err := ps.PreadyRange(p, 0, threads); err != nil {
					panic(err)
				}
			}
			for _, ps := range sends {
				if err := ps.Wait(p); err != nil {
					panic(err)
				}
			}
			for _, pr := range recvs {
				if err := pr.Wait(p); err != nil {
					panic(err)
				}
			}
		}
	})
	return w, engines, err
}

// BenchmarkWorldSetup times setupSweepJob at 256 and 1024 ranks. As in
// the repository benchmark, the previous job's garbage is collected
// before the clock restarts.
func BenchmarkWorldSetup(b *testing.B) {
	for _, side := range []int{16, 32} {
		b.Run(fmt.Sprintf("ranks=%d", side*side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if _, _, err := setupSweepJob(side); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// setupHeapPerRankBudget bounds the live heap a rank of setupSweepJob(16)
// holds after setup: 1.15 × the 4,802 B measured on linux/amd64 with
// go1.24, where a queue pair builds its fabric flows on first use and a
// control message is one pooled record.
const setupHeapPerRankBudget = 5522

// TestWorldSetupHeapPerRank is the per-rank footprint gate: the live heap
// a 256-rank sweep3d job holds once setup is done, read after a full
// collection with the job still reachable, divided by the rank count.
func TestWorldSetupHeapPerRank(t *testing.T) {
	const side = 16
	perRank := liveHeapPerRank(t, side, func() (*mpi.World, []*core.Engine, error) {
		return setupSweepJob(side)
	})
	t.Logf("live heap after setup: %d B per rank (budget %d B)", perRank, setupHeapPerRankBudget)
	if perRank > setupHeapPerRankBudget {
		t.Errorf("live heap after setup is %d B per rank, over the %d B budget", perRank, setupHeapPerRankBudget)
	}
}

// roundHeapPerRankBudget bounds the live heap a rank of the 256-rank sweep
// job holds after one full round, receive buffers excluded: 1.10 × the
// 9,263 B measured on linux/amd64 with go1.24. The round builds what setup
// defers, such as every sender's flow at its first post, so this gate
// shows what the job holds once it runs, not only at setup. The margin is
// kept below the 10,596 B a rank held when every queue pair built both of
// its flows at connect time.
const roundHeapPerRankBudget = 10189

// TestWorldRoundHeapPerRank is the footprint gate after one round: the
// sweep job of TestWorldSetupHeapPerRank runs Start, Pready and Wait once
// on every request before the live heap is read. The receive buffers are
// allocated before the baseline reading, so only the job's state counts.
func TestWorldRoundHeapPerRank(t *testing.T) {
	const side = 16
	rbufs := make([][]byte, side*side)
	for i := range rbufs {
		rbufs[i] = make([]byte, sweepJobBytes)
	}
	perRank := liveHeapPerRank(t, side, func() (*mpi.World, []*core.Engine, error) {
		return sweepJob(side, 1, rbufs)
	})
	runtime.KeepAlive(rbufs)
	t.Logf("live heap after one round: %d B per rank (budget %d B)", perRank, roundHeapPerRankBudget)
	if perRank > roundHeapPerRankBudget {
		t.Errorf("live heap after one round is %d B per rank, over the %d B budget", perRank, roundHeapPerRankBudget)
	}
}

// liveHeapPerRank runs job on a side × side grid and returns the live heap
// it holds once done, read after a full collection with the job still
// reachable, divided by the rank count.
func liveHeapPerRank(t *testing.T, side int, job func() (*mpi.World, []*core.Engine, error)) int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	w, engines, err := job()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	runtime.KeepAlive(engines)
	return (int64(ms.HeapAlloc) - int64(base)) / int64(side*side)
}
