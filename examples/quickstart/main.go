// Quickstart: one partitioned send between two simulated nodes.
//
// Eight "OpenMP threads" each produce one partition of a 1 MiB buffer at
// slightly different times; the timer-based PLogGP aggregator ships the
// early partitions as soon as δ expires, so the receiver sees most of the
// data before the slowest thread has even finished. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/partib"
)

func main() {
	const (
		parts = 8
		total = 1 << 20
		tag   = 7
	)

	job, err := partib.NewJob(partib.JobConfig{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	engines := make([]*partib.Engine, 2)
	for i := range engines {
		eng, err := partib.NewEngine(job.Rank(i))
		if err != nil {
			log.Fatal(err)
		}
		engines[i] = eng
	}

	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, total)

	err = job.Run(func(p *partib.Proc, r *partib.Rank) {
		eng := engines[r.ID()]
		switch r.ID() {
		case 0: // sender
			ps, err := eng.PsendInit(p, src, parts, 1, tag, partib.Options{
				Strategy: partib.StrategyTimerPLogGP,
				Delta:    35 * time.Microsecond,
			})
			if err != nil {
				log.Fatal(err)
			}
			ps.Start(p)
			fmt.Printf("[%8v] sender: round started with plan %+v\n", p.Now(), ps.Plan())

			g := partib.NewGroup(job)
			for i := 0; i < parts; i++ {
				i := i
				partib.SpawnThread(job, g, fmt.Sprintf("omp-%d", i), func(tp *partib.Proc) {
					// Thread i computes for 50µs; the last thread is the
					// laggard and takes 5ms.
					compute := 50 * time.Microsecond
					if i == parts-1 {
						compute = 5 * time.Millisecond
					}
					r.Compute(tp, compute)
					if err := ps.Pready(tp, i); err != nil {
						log.Fatal(err)
					}
					fmt.Printf("[%8v] sender: thread %d called Pready\n", tp.Now(), i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
			fmt.Printf("[%8v] sender: all transport partitions complete\n", p.Now())

		case 1: // receiver
			pr, err := eng.PrecvInit(p, dst, parts, 0, tag, partib.Options{})
			if err != nil {
				log.Fatal(err)
			}
			pr.Start(p)
			// Probe with MPI_Parrived while the laggard is still computing.
			p.Sleep(2 * time.Millisecond)
			arrived := 0
			for i := 0; i < parts; i++ {
				ok, err := pr.Parrived(p, i)
				if err != nil {
					log.Fatal(err)
				}
				if ok {
					arrived++
				}
			}
			fmt.Printf("[%8v] receiver: %d/%d partitions arrived early (early-bird)\n",
				p.Now(), arrived, parts)
			pr.Wait(p)
			fmt.Printf("[%8v] receiver: all partitions arrived\n", p.Now())
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	for i := range dst {
		if dst[i] != src[i] {
			log.Fatalf("data mismatch at byte %d", i)
		}
	}
	fmt.Println("quickstart: 1 MiB moved correctly through the partitioned path")
}
