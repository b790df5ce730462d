// Pipeline: receive-side partitioned processing with MPI_Parrived.
//
// The paper's related work (Dosanjh & Grant, "Receive-Side Partitioned
// Communication") found that receivers can start computing on individual
// partitions as they land instead of waiting for the whole buffer. This
// example demonstrates that overlap: the sender's threads produce
// partitions over time under the timer-based aggregator, while receiver
// threads poll MPI_Parrived and process each partition the moment it
// arrives — finishing long before a whole-buffer Wait would even return.
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"time"

	"repro/partib"
)

const (
	parts      = 16
	total      = 4 << 20 // 256 KiB per partition
	tag        = 3
	produce    = 250 * time.Microsecond // per-partition production time
	processing = 150 * time.Microsecond // per-partition consumption time
)

func main() {
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
	dst := make([]byte, total)
	var processedAt [parts]partib.Time
	var allArrivedAt partib.Time

	err = job.Run(func(p *partib.Proc, r *partib.Rank) {
		eng := engines[r.ID()]
		switch r.ID() {
		case 0: // producer
			ps, err := eng.PsendInit(p, src, parts, 1, tag, partib.Options{
				Strategy: partib.StrategyTimerPLogGP,
				Delta:    35 * time.Microsecond,
			})
			if err != nil {
				log.Fatal(err)
			}
			ps.Start(p)
			g := partib.NewGroup(job)
			for i := 0; i < parts; i++ {
				i := i
				partib.SpawnThread(job, g, "producer", func(tp *partib.Proc) {
					// Partitions are produced sequentially in time: thread
					// i's data is ready after (i+1) production steps.
					r.Compute(tp, time.Duration(i+1)*produce)
					if err := ps.Pready(tp, i); err != nil {
						log.Fatal(err)
					}
				})
			}
			g.Wait(p)
			ps.Wait(p)

		case 1: // consumer: per-partition pipeline via Parrived
			pr, err := eng.PrecvInit(p, dst, parts, 0, tag, partib.Options{})
			if err != nil {
				log.Fatal(err)
			}
			pr.Start(p)
			g := partib.NewGroup(job)
			for i := 0; i < parts; i++ {
				i := i
				partib.SpawnThread(job, g, "consumer", func(tp *partib.Proc) {
					// Poll MPI_Parrived for this thread's partition, then
					// process it immediately.
					for {
						ok, err := pr.Parrived(tp, i)
						if err != nil {
							log.Fatal(err)
						}
						if ok {
							break
						}
						tp.Sleep(20 * time.Microsecond)
					}
					r.Compute(tp, processing)
					processedAt[i] = tp.Now()
				})
			}
			g.Wait(p)
			pr.Wait(p)
			allArrivedAt = p.Now()
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-14s\n", "partition", "processed at")
	for i, at := range processedAt {
		fmt.Printf("%-10d %-14v\n", i, at)
	}
	fmt.Printf("\nlast partition produced at ~%v; receive-side processing finished at %v\n",
		time.Duration(parts)*produce, processedAt[parts-1])
	fmt.Printf("a whole-buffer Wait returned at %v — the pipeline hid %v of processing\n",
		allArrivedAt, time.Duration(parts)*processing)

	overlap := 0
	for i := 0; i < parts-1; i++ {
		if processedAt[i] < allArrivedAt {
			overlap++
		}
	}
	fmt.Printf("%d of %d partitions were fully processed before the last one arrived\n", overlap, parts-1)
}
