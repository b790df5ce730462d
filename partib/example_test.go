package partib_test

import (
	"fmt"
	"time"

	"repro/partib"
)

// Example demonstrates the full partitioned lifecycle on a two-node
// simulated job: init, Start, per-thread Pready under the timer-based
// aggregator, and receive-side completion.
func Example() {
	const (
		parts = 4
		total = 64 << 10
		tag   = 1
	)
	job, err := partib.NewJob(partib.JobConfig{Nodes: 2})
	if err != nil {
		panic(err)
	}
	engines := make([]*partib.Engine, 2)
	for i := range engines {
		eng, err := partib.NewEngine(job.Rank(i))
		if err != nil {
			panic(err)
		}
		engines[i] = eng
	}
	src := make([]byte, total)
	dst := make([]byte, total)
	for i := range src {
		src[i] = byte(i)
	}

	err = job.Run(func(p *partib.Proc, r *partib.Rank) {
		eng := engines[r.ID()]
		switch r.ID() {
		case 0:
			ps, err := eng.PsendInit(p, src, parts, 1, tag, partib.Options{
				Strategy: partib.StrategyTimerPLogGP,
				Delta:    35 * time.Microsecond,
			})
			if err != nil {
				panic(err)
			}
			ps.Start(p)
			g := partib.NewGroup(job)
			for i := 0; i < parts; i++ {
				i := i
				partib.SpawnThread(job, g, "worker", func(tp *partib.Proc) {
					r.Compute(tp, time.Duration(i+1)*25*time.Microsecond)
					ps.Pready(tp, i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
		case 1:
			pr, err := eng.PrecvInit(p, dst, parts, 0, tag, partib.Options{})
			if err != nil {
				panic(err)
			}
			pr.Start(p)
			pr.Wait(p)
			fmt.Printf("received %d partitions, %d bytes\n", pr.Arrived(), len(dst))
		}
	})
	if err != nil {
		panic(err)
	}
	ok := true
	for i := range dst {
		if dst[i] != src[i] {
			ok = false
		}
	}
	fmt.Println("data intact:", ok)
	// Output:
	// received 4 partitions, 65536 bytes
	// data intact: true
}

// Example_model shows the PLogGP model reproducing the paper's Table I
// decision for a 1 MiB buffer.
func Example_model() {
	n, err := partib.OptimalTransport(1<<20, 32, 4*time.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Printf("1 MiB over 32 user partitions -> %d transport partitions\n", n)
	// Output:
	// 1 MiB over 32 user partitions -> 2 transport partitions
}
