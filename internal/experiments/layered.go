package experiments

import (
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpipcl"
	"repro/internal/pt2pt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AblationLayered compares the portable layered partitioned implementation
// (internal/mpipcl, after MPIPCL) against the in-library baseline on the
// overhead benchmark. Worley et al. (ICPP Workshops'21), discussed in the
// paper's related work, found "minimal difference between the layered
// library approach and the Open MPI persistent MCA module"; both send one
// message per user partition, so their round times should track each other
// within tens of percent.
func AblationLayered(cfg Config) ([]*stats.Table, error) {
	const parts = 16
	sizes := sizesPow2(16<<10, 4<<20, parts)
	if cfg.Quick {
		sizes = []int{64 << 10, 1 << 20}
	}
	warmup, iters := cfg.iterCounts()
	tb := stats.NewTable(
		"Ablation: layered (MPIPCL-style) vs in-library baseline, 16 partitions",
		"size", "baseline round", "layered round", "layered/baseline")
	// One job per size; each runs its baseline and layered simulations
	// back to back (both are independent engines, so sizes parallelize).
	type pair struct {
		base    bench.P2PResult
		layered time.Duration
	}
	pairs, err := runOrdered(cfg, sizes, func(size int) (pair, error) {
		base, err := bench.RunP2P(bench.P2PConfig{
			Parts: parts, Bytes: size, Warmup: warmup, Iters: iters,
			Opts:   core.Options{Strategy: core.StrategyBaseline},
			Shards: cfg.Shards,
			Topo:   cfg.Topo,
		})
		if err != nil {
			return pair{}, err
		}
		layered, err := runLayeredOverhead(parts, size, warmup, iters)
		if err != nil {
			return pair{}, err
		}
		return pair{base, layered}, nil
	}, func(i int) string {
		return "ablation-layered: size " + stats.FormatBytes(sizes[i])
	})
	if err != nil {
		return nil, err
	}
	for si, s := range sizes {
		tb.AddRow(stats.FormatBytes(s), pairs[si].base.MeanIterTime(), pairs[si].layered,
			float64(pairs[si].layered)/float64(pairs[si].base.MeanIterTime()))
	}
	return []*stats.Table{tb}, nil
}

// runLayeredOverhead is the overhead benchmark driven through the layered
// implementation.
func runLayeredOverhead(parts, size, warmup, iters int) (time.Duration, error) {
	w, comms, err := bench.NewWorld(bench.WorldSpec{Ranks: 2}, pt2pt.New)
	if err != nil {
		return 0, err
	}
	src := make([]byte, size)
	dst := make([]byte, size)
	total := warmup + iters
	var roundStart sim.Time
	var sum time.Duration
	measured := 0

	err = w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, err := mpipcl.PsendInit(p, comms[0], src, parts, 1, 0)
			if err != nil {
				panic(err)
			}
			for iter := 0; iter < total; iter++ {
				r.Barrier(p)
				roundStart = p.Now()
				if err := ps.Start(p); err != nil {
					panic(err)
				}
				g := sim.NewGroup(p.Engine())
				for t := 0; t < parts; t++ {
					t := t
					g.Add(1)
					p.Engine().Spawn("thread", func(tp *sim.Proc) {
						defer g.Done()
						if err := ps.Pready(tp, t); err != nil {
							panic(err)
						}
					})
				}
				g.Wait(p)
				if err := ps.Wait(p); err != nil {
					panic(err)
				}
			}
		case 1:
			pr, err := mpipcl.PrecvInit(p, comms[1], dst, parts, 0, 0)
			if err != nil {
				panic(err)
			}
			for iter := 0; iter < total; iter++ {
				r.Barrier(p)
				if err := pr.Start(p); err != nil {
					panic(err)
				}
				if err := pr.Wait(p); err != nil {
					panic(err)
				}
				if iter >= warmup {
					sum += p.Now().Sub(roundStart)
					measured++
				}
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return sum / time.Duration(measured), nil
}
