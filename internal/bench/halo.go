package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HaloConfig describes the 2-D halo-exchange pattern from the paper's
// benchmark suite (reference [14] evaluates both a halo exchange and the
// sweep): every rank exchanges partitioned face buffers with its four
// periodic neighbours each iteration, with one thread per partition
// packing its share of every face.
type HaloConfig struct {
	// GridX and GridY shape the periodic rank grid (one rank per node).
	GridX int
	GridY int
	// Threads is threads == user partitions per face.
	Threads int
	// Bytes is the per-face message size.
	Bytes int
	// Compute is per-thread packing/update time per iteration.
	Compute time.Duration
	// NoisePct delays one laggard thread by Compute*NoisePct/100.
	NoisePct float64
	// Warmup and Iters; zero values select 3 and 10.
	Warmup int
	Iters  int
	// Opts selects the aggregation strategy under test.
	Opts core.Options
	// Provider names the transport provider ("" selects "verbs").
	Provider string
	// Shards partitions the simulation into this many conservative-PDES
	// shards (see cluster.Config.Shards); 0 or 1 runs serial. Results are
	// byte-identical either way.
	Shards int
	// Topo selects the fabric topology by spec ("single-link",
	// "fat-tree:k=8", ...; see fabric.ParseTopology). Empty keeps the
	// default single-link fabric.
	Topo string
	// CoresPerNode overrides the node size (zero selects Niagara's 40).
	CoresPerNode int
	// Arrival, if non-nil, adds a synthetic per-round, per-thread Pready
	// delay on top of Compute (see SweepConfig.Arrival); each rank draws
	// from its own seed-mixed pattern instance.
	Arrival *trace.ArrivalPattern
}

func (c HaloConfig) withDefaults() HaloConfig {
	if c.Warmup == 0 {
		c.Warmup = 3
	}
	if c.Iters == 0 {
		c.Iters = 10
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 40
	}
	return c
}

// Validate reports configuration errors.
func (c HaloConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.GridX < 2 || c.GridY < 2:
		return fmt.Errorf("bench: halo grid %dx%d needs at least 2x2 (periodic neighbours must be distinct)", c.GridX, c.GridY)
	case c.Threads < 1:
		return fmt.Errorf("bench: halo needs at least one thread")
	case c.Bytes < c.Threads || c.Bytes%c.Threads != 0:
		return fmt.Errorf("bench: Bytes %d not divisible into %d partitions", c.Bytes, c.Threads)
	case c.Compute < 0 || c.NoisePct < 0:
		return fmt.Errorf("bench: negative compute or noise")
	}
	return nil
}

// HaloResult holds per-iteration exchange times (max over ranks).
type HaloResult struct {
	IterTimes []time.Duration
	// Compute is the per-iteration computation baseline (one thread wave).
	Compute time.Duration
	// Adaptive is the per-rank decision telemetry of the east-bound send
	// when the run used StrategyAdaptive (nil entries otherwise) — the
	// sampled direction for differential and telemetry checks; all four
	// sends adapt independently.
	Adaptive []*core.AdaptiveStats
}

// MeanCommTime returns mean(IterTimes) - Compute, clamped at a nanosecond.
func (r HaloResult) MeanCommTime() time.Duration {
	if len(r.IterTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.IterTimes {
		sum += d
	}
	mean := sum / time.Duration(len(r.IterTimes))
	comm := mean - r.Compute
	if comm < time.Nanosecond {
		comm = time.Nanosecond
	}
	return comm
}

// haloDirs enumerates the four exchange directions (tag, dx, dy).
var haloDirs = []struct {
	tag    int
	dx, dy int
}{
	{101, 1, 0},  // east
	{102, -1, 0}, // west
	{103, 0, 1},  // south
	{104, 0, -1}, // north
}

// RunHalo executes the halo pattern and returns per-iteration times.
func RunHalo(cfg HaloConfig) (HaloResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return HaloResult{}, err
	}
	nodes := cfg.GridX * cfg.GridY
	clCfg := cluster.NiagaraConfig(nodes)
	clCfg.CoresPerNode = cfg.CoresPerNode
	clCfg.Shards = cfg.Shards
	if cfg.Topo != "" {
		topo, err := fabric.ParseTopology(cfg.Topo)
		if err != nil {
			return HaloResult{}, err
		}
		clCfg.Fabric.Topo = topo
	}
	if err := clCfg.Validate(); err != nil {
		return HaloResult{}, err
	}
	w := mpi.NewWorld(mpi.Config{Cluster: clCfg})
	engines := make([]*core.Engine, nodes)
	for i := 0; i < nodes; i++ {
		eng, err := core.NewEngine(w.Rank(i), cfg.Provider)
		if err != nil {
			return HaloResult{}, err
		}
		engines[i] = eng
	}
	rankOf := func(x, y int) int {
		x = (x + cfg.GridX) % cfg.GridX
		y = (y + cfg.GridY) % cfg.GridY
		return y*cfg.GridX + x
	}

	total := cfg.Warmup + cfg.Iters
	res := HaloResult{Compute: cfg.Compute}
	starts := make([]sim.Time, total)
	// Each rank records its own per-iteration finish; the max over ranks
	// is reduced after the run. Ranks touch only their own row, so the
	// recording is race-free on a sharded cluster (and max is
	// order-independent, so the reduced values match a serial run).
	rankEnds := make([][]sim.Time, nodes)
	for i := range rankEnds {
		rankEnds[i] = make([]sim.Time, total)
	}
	adaptive := make([]*core.AdaptiveStats, nodes)
	laggard := cfg.Threads - 1

	err := w.Run(func(p *sim.Proc, r *mpi.Rank) {
		id := r.ID()
		x, y := id%cfg.GridX, id/cfg.GridX
		eng := engines[id]

		sends := make([]*core.Psend, len(haloDirs))
		recvs := make([]*core.Precv, len(haloDirs))
		for d, dir := range haloDirs {
			var err error
			sends[d], err = eng.PsendInit(p, make([]byte, cfg.Bytes), cfg.Threads,
				rankOf(x+dir.dx, y+dir.dy), dir.tag, cfg.Opts)
			if err != nil {
				panic(err)
			}
			// Receive from the opposite direction with the sender's tag.
			recvs[d], err = eng.PrecvInit(p, make([]byte, cfg.Bytes), cfg.Threads,
				rankOf(x-dir.dx, y-dir.dy), dir.tag, cfg.Opts)
			if err != nil {
				panic(err)
			}
		}

		// The group and the per-thread bodies are allocated once and reused
		// every round (see RunSweep): per-round closures otherwise dominate
		// the benchmark's allocation profile.
		g := sim.NewGroup(p.Engine())
		var arrivalPat *trace.ArrivalPattern
		var arrivals []time.Duration
		if cfg.Arrival != nil {
			arrivalPat = cfg.Arrival.Instance(id)
			arrivals = make([]time.Duration, cfg.Threads)
		}
		threads := make([]func(tp *sim.Proc), cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			t := t
			threads[t] = func(tp *sim.Proc) {
				defer g.Done()
				compute := cfg.Compute
				if t == laggard {
					compute += time.Duration(float64(cfg.Compute) * cfg.NoisePct / 100)
				}
				if arrivals != nil {
					compute += arrivals[t]
				}
				if compute > 0 {
					r.Compute(tp, compute)
				}
				for _, ps := range sends {
					if err := ps.Pready(tp, t); err != nil {
						panic(err)
					}
				}
			}
		}

		for iter := 0; iter < total; iter++ {
			r.Barrier(p)
			if id == 0 {
				starts[iter] = p.Now()
			}
			if arrivalPat != nil {
				arrivalPat.Delays(iter, arrivals)
			}
			for _, pr := range recvs {
				pr.Start(p)
			}
			for _, ps := range sends {
				ps.Start(p)
			}
			for t := 0; t < cfg.Threads; t++ {
				g.Add(1)
				p.Engine().Spawn("halo-thread", threads[t])
			}
			g.Wait(p)
			for _, pr := range recvs {
				pr.Wait(p)
			}
			for _, ps := range sends {
				ps.Wait(p)
			}
			// Iteration completes when the slowest rank finishes.
			rankEnds[id][iter] = p.Now()
		}
		// Each rank writes only its own slot — race-free when sharded.
		adaptive[id] = sends[0].AdaptiveStats()
	})
	if err != nil {
		return HaloResult{}, err
	}
	for iter := cfg.Warmup; iter < total; iter++ {
		end := rankEnds[0][iter]
		for _, re := range rankEnds[1:] {
			if re[iter] > end {
				end = re[iter]
			}
		}
		res.IterTimes = append(res.IterTimes, end.Sub(starts[iter]))
	}
	res.Adaptive = adaptive
	return res, nil
}
