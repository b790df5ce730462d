package bench

import (
	"fmt"
	"runtime"
	"testing"

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
	const threads = 4
	sbuf, rbuf := make([]byte, 16<<10), make([]byte, 16<<10)
	opts := core.Options{Strategy: core.StrategyPLogGP}
	w, engines, err := NewWorld(WorldSpec{Ranks: side * side, Shards: 2}, newCoreEngine)
	if err != nil {
		return nil, nil, err
	}
	err = w.Run(func(p *sim.Proc, r *mpi.Rank) {
		id := r.ID()
		x, y := id%side, id/side
		for _, l := range gridPatterns[Sweep3D].links {
			nx, ny := x+l.dx, y+l.dy
			if nx < 0 || nx >= side || ny < 0 || ny >= side {
				continue
			}
			peer := ny*side + nx
			var err error
			if l.send {
				_, err = engines[id].PsendInit(p, sbuf, threads, peer, l.tag, opts)
			} else {
				_, err = engines[id].PrecvInit(p, rbuf, threads, peer, l.tag, opts)
			}
			if err != nil {
				panic(err)
			}
		}
		r.Barrier(p)
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
// holds after setup: 1.15 × the 6,983 B measured on linux/amd64 with
// go1.24, where no per-rank hash map survives setup and only ranks with
// a baseline request build core's messenger.
const setupHeapPerRankBudget = 8030

// TestWorldSetupHeapPerRank is the per-rank footprint gate: the live heap
// a 256-rank sweep3d job holds once setup is done, read after a full
// collection with the job still reachable, divided by the rank count.
func TestWorldSetupHeapPerRank(t *testing.T) {
	const side = 16
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	w, engines, err := setupSweepJob(side)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	runtime.KeepAlive(engines)
	perRank := (int64(ms.HeapAlloc) - int64(base)) / (side * side)
	t.Logf("live heap after setup: %d B per rank (budget %d B)", perRank, setupHeapPerRankBudget)
	if perRank > setupHeapPerRankBudget {
		t.Errorf("live heap after setup is %d B per rank, over the %d B budget", perRank, setupHeapPerRankBudget)
	}
}
