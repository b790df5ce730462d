// Halo2d: a 2-D halo exchange with partitioned faces — the workload class
// the paper's introduction motivates (multi-threaded stencil codes where
// each thread packs part of a face and marks it ready independently).
//
// Four ranks form a 2x2 grid with periodic neighbours. Each rank owns a
// square tile; every iteration its threads update interior rows and, as
// each thread finishes the rows feeding a face, it calls Pready for its
// partition of the east and west face buffers. Run with:
//
//	go run ./examples/halo2d
package main

import (
	"fmt"
	"log"
	"time"

	"repro/partib"
)

const (
	gridX, gridY = 2, 2
	threads      = 8         // partitions per face
	faceBytes    = 256 << 10 // per-face message
	iters        = 4
	tagEW        = 1 // eastward traffic
	tagWE        = 2 // westward traffic
)

func rankOf(x, y int) int { return y*gridX + x }

func main() {
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
	opts := partib.Options{
		Strategy: partib.StrategyTimerPLogGP,
		Delta:    35 * time.Microsecond,
	}

	err = job.Run(func(p *partib.Proc, r *partib.Rank) {
		id := r.ID()
		x, y := id%gridX, id/gridX
		east := rankOf((x+1)%gridX, y)
		west := rankOf((x-1+gridX)%gridX, y)
		eng := engines[id]

		// Periodic halo in X: send east, receive from west, and the
		// reverse direction with its own tag and buffers.
		sendE := make([]byte, faceBytes)
		sendW := make([]byte, faceBytes)
		recvW := make([]byte, faceBytes)
		recvE := make([]byte, faceBytes)

		psE, err := eng.PsendInit(p, sendE, threads, east, tagEW, opts)
		if err != nil {
			log.Fatal(err)
		}
		psW, err := eng.PsendInit(p, sendW, threads, west, tagWE, opts)
		if err != nil {
			log.Fatal(err)
		}
		prW, err := eng.PrecvInit(p, recvW, threads, west, tagEW, opts)
		if err != nil {
			log.Fatal(err)
		}
		prE, err := eng.PrecvInit(p, recvE, threads, east, tagWE, opts)
		if err != nil {
			log.Fatal(err)
		}

		for iter := 0; iter < iters; iter++ {
			r.Barrier(p)
			start := p.Now()
			prW.Start(p)
			prE.Start(p)
			psE.Start(p)
			psW.Start(p)

			// Fill faces with iteration-dependent data, then "compute"
			// per thread and mark partitions ready.
			part := faceBytes / threads
			for i := range sendE {
				sendE[i] = byte(iter + id)
				sendW[i] = byte(iter - id)
			}
			g := partib.NewGroup(job)
			for t := 0; t < threads; t++ {
				t := t
				partib.SpawnThread(job, g, "stencil", func(tp *partib.Proc) {
					// Interior update time varies a little per thread.
					r.Compute(tp, 200*time.Microsecond+time.Duration(t)*5*time.Microsecond)
					if err := psE.Pready(tp, t); err != nil {
						log.Fatal(err)
					}
					if err := psW.Pready(tp, t); err != nil {
						log.Fatal(err)
					}
				})
			}
			g.Wait(p)
			prW.Wait(p)
			prE.Wait(p)
			psE.Wait(p)
			psW.Wait(p)

			// Verify the halo contents.
			wantW := byte(iter + west)
			wantE := byte(iter - east)
			if recvW[0] != wantW || recvW[part*threads-1] != wantW {
				log.Fatalf("rank %d iter %d: west halo corrupt", id, iter)
			}
			if recvE[0] != wantE {
				log.Fatalf("rank %d iter %d: east halo corrupt", id, iter)
			}
			if id == 0 {
				fmt.Printf("iter %d: halo exchanged in %v (virtual)\n", iter, p.Now().Sub(start))
			}
		}
		_ = y
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("halo2d: all iterations verified on every rank")
}
