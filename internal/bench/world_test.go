package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// BenchmarkWorldSetup times the setup of a sweep3d job on 2 shards, the
// repository benchmark's setup-only job: the world, one partitioned
// engine per rank, every rank's wavefront PsendInit/PrecvInit pairs, and
// the setup barrier. The job ends at the barrier, so no payload moves and
// every request shares one send and one receive buffer. As in the
// repository benchmark, the previous job's garbage is collected before
// the clock restarts.
func BenchmarkWorldSetup(b *testing.B) {
	for _, side := range []int{16, 32} {
		b.Run(fmt.Sprintf("ranks=%d", side*side), func(b *testing.B) {
			const threads = 4
			sbuf, rbuf := make([]byte, 16<<10), make([]byte, 16<<10)
			opts := core.Options{Strategy: core.StrategyPLogGP}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				w, engines, err := NewWorld(WorldSpec{Ranks: side * side, Shards: 2}, core.NewEngine)
				if err != nil {
					b.Fatal(err)
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
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
