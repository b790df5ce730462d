// Sweep3d: the wavefront communication pattern of the paper's Section V-D
// built directly on the public API — a 4x4 rank grid where each rank
// receives partitioned messages from its west and north neighbours,
// computes with one thread per partition, and sends east and south. The
// example runs the same sweep under the baseline and the timer-based
// PLogGP aggregator and reports the communication-time speedup, the
// quantity the paper's Figure 14 plots. Run with:
//
//	go run ./examples/sweep3d
package main

import (
	"fmt"
	"log"
	"time"

	"repro/partib"
)

const (
	gridX, gridY = 4, 4
	threads      = 16
	msgBytes     = 1 << 20
	compute      = time.Millisecond
	noisePct     = 1.0
	iters        = 5
	tagE, tagS   = 1, 2
)

func rankOf(x, y int) int { return y*gridX + x }

// runSweep executes the wavefront under one strategy and returns the mean
// iteration time.
func runSweep(opts partib.Options) time.Duration {
	job, err := partib.NewJob(partib.JobConfig{Nodes: gridX * gridY})
	if err != nil {
		log.Fatal(err)
	}
	engines := make([]*partib.Engine, job.Size())
	for i := range engines {
		eng, err := partib.NewEngine(job.Rank(i))
		if err != nil {
			log.Fatal(err)
		}
		engines[i] = eng
	}
	var iterStart, iterEnd partib.Time
	var total time.Duration

	err = job.Run(func(p *partib.Proc, r *partib.Rank) {
		id := r.ID()
		x, y := id%gridX, id/gridX
		eng := engines[id]

		var sendE, sendS *partib.Psend
		var recvW, recvN *partib.Precv
		var err error
		if x < gridX-1 {
			if sendE, err = eng.PsendInit(p, make([]byte, msgBytes), threads, rankOf(x+1, y), tagE, opts); err != nil {
				log.Fatal(err)
			}
		}
		if y < gridY-1 {
			if sendS, err = eng.PsendInit(p, make([]byte, msgBytes), threads, rankOf(x, y+1), tagS, opts); err != nil {
				log.Fatal(err)
			}
		}
		if x > 0 {
			if recvW, err = eng.PrecvInit(p, make([]byte, msgBytes), threads, rankOf(x-1, y), tagE, opts); err != nil {
				log.Fatal(err)
			}
		}
		if y > 0 {
			if recvN, err = eng.PrecvInit(p, make([]byte, msgBytes), threads, rankOf(x, y-1), tagS, opts); err != nil {
				log.Fatal(err)
			}
		}

		for iter := 0; iter < iters; iter++ {
			r.Barrier(p)
			if id == 0 {
				iterStart = p.Now()
			}
			if recvW != nil {
				recvW.Start(p)
			}
			if recvN != nil {
				recvN.Start(p)
			}
			if sendE != nil {
				sendE.Start(p)
			}
			if sendS != nil {
				sendS.Start(p)
			}
			if recvW != nil {
				recvW.Wait(p)
			}
			if recvN != nil {
				recvN.Wait(p)
			}
			g := partib.NewGroup(job)
			for t := 0; t < threads; t++ {
				t := t
				partib.SpawnThread(job, g, "sweep", func(tp *partib.Proc) {
					c := compute
					if t == threads-1 {
						c += time.Duration(float64(compute) * noisePct / 100)
					}
					r.Compute(tp, c)
					if sendE != nil {
						if err := sendE.Pready(tp, t); err != nil {
							log.Fatal(err)
						}
					}
					if sendS != nil {
						if err := sendS.Pready(tp, t); err != nil {
							log.Fatal(err)
						}
					}
				})
			}
			g.Wait(p)
			if sendE != nil {
				sendE.Wait(p)
			}
			if sendS != nil {
				sendS.Wait(p)
			}
			if x == gridX-1 && y == gridY-1 {
				iterEnd = p.Now()
				total += iterEnd.Sub(iterStart)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return total / iters
}

func main() {
	baseline := runSweep(partib.Options{Strategy: partib.StrategyBaseline})
	timer := runSweep(partib.Options{
		Strategy: partib.StrategyTimerPLogGP,
		Delta:    35 * time.Microsecond,
	})

	criticalCompute := time.Duration(gridX+gridY-1) * compute
	commBase := baseline - criticalCompute
	commTimer := timer - criticalCompute
	fmt.Printf("sweep3d %dx%d ranks, %d threads, %s messages\n",
		gridX, gridY, threads, fmtBytes(msgBytes))
	fmt.Printf("  baseline      : wavefront %v, communication %v\n", baseline, commBase)
	fmt.Printf("  timer-ploggp  : wavefront %v, communication %v\n", timer, commTimer)
	fmt.Printf("  communication speedup: %.2fx\n", float64(commBase)/float64(commTimer))
}

func fmtBytes(n int) string {
	if n%(1<<20) == 0 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}
