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

// SweepConfig describes the Sweep3D communication pattern of Section V-D:
// ranks form a 2-D grid; a wavefront starts at the north-west corner, and
// each rank receives partitioned messages from its west and north
// neighbours, computes with one thread per partition, and sends east and
// south. The paper runs it at 1024 cores: 16 threads x 64 nodes.
type SweepConfig struct {
	// GridX and GridY shape the rank grid (one rank per node).
	GridX int
	GridY int
	// Threads is threads == user partitions per rank (paper: 16).
	Threads int
	// Bytes is the per-neighbour message size.
	Bytes int
	// Compute is per-thread computation per wavefront step.
	Compute time.Duration
	// NoisePct delays one laggard thread by Compute*NoisePct/100.
	NoisePct float64
	// Warmup and Iters follow the paper's sweep protocol: 3 warm-up, 10
	// measured (zero values select those).
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
	// Workers sizes the shard worker fleet (≤ 0 selects the default);
	// ignored for serial runs. Results are independent of the count.
	Workers int
	// Topo selects the fabric topology by spec ("single-link",
	// "fat-tree:k=8", ...; see fabric.ParseTopology). Empty keeps the
	// default single-link fabric.
	Topo string
	// CoresPerNode overrides the node size (zero selects Niagara's 40).
	CoresPerNode int
	// Arrival, if non-nil, adds a synthetic per-round, per-thread Pready
	// delay on top of Compute; each rank draws from its own seed-mixed
	// pattern instance, so schedules replay exactly and nothing is shared
	// across shards.
	Arrival *trace.ArrivalPattern
}

func (c SweepConfig) withDefaults() SweepConfig {
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
func (c SweepConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.GridX < 1 || c.GridY < 1:
		return fmt.Errorf("bench: sweep grid %dx%d invalid", c.GridX, c.GridY)
	case c.Threads < 1:
		return fmt.Errorf("bench: sweep needs at least one thread")
	case c.Bytes < c.Threads || c.Bytes%c.Threads != 0:
		return fmt.Errorf("bench: Bytes %d not divisible into %d partitions", c.Bytes, c.Threads)
	case c.Compute < 0 || c.NoisePct < 0:
		return fmt.Errorf("bench: negative compute or noise")
	}
	return nil
}

// SweepResult holds the per-iteration wavefront times.
type SweepResult struct {
	// IterTimes is the full wavefront time per measured iteration.
	IterTimes []time.Duration
	// CriticalCompute is the computation along the wavefront's critical
	// path per iteration (subtracted to isolate communication time, as
	// the paper does for Figure 14).
	CriticalCompute time.Duration
	// ShardStats reports the conservative-PDES runtime counters (windows,
	// window-sync stalls, per-shard events, cross-shard posts) when the
	// run was sharded; nil for a serial run.
	ShardStats *sim.ShardStats
	// AdaptiveEast and AdaptiveSouth are the per-rank decision telemetry
	// of the east/south partitioned sends when the run used
	// StrategyAdaptive (nil entries where the rank has no such send, or
	// for static strategies). Differential tests compare them across
	// shard and worker counts.
	AdaptiveEast, AdaptiveSouth []*core.AdaptiveStats
	// BufferSums is a per-rank FNV-1a digest of the final receive buffers
	// (west then north) — the byte-identity witness for differential runs.
	BufferSums []uint64
}

// MeanCommTime returns mean(IterTimes) - CriticalCompute, clamped at a
// nanosecond to keep speedup ratios well-defined.
func (r SweepResult) MeanCommTime() time.Duration {
	if len(r.IterTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.IterTimes {
		sum += d
	}
	mean := sum / time.Duration(len(r.IterTimes))
	comm := mean - r.CriticalCompute
	if comm < time.Nanosecond {
		comm = time.Nanosecond
	}
	return comm
}

// fillRankBuf writes a deterministic per-(rank, tag) byte pattern.
func fillRankBuf(b []byte, rank, tag int) {
	seed := jitterPRNG(uint64(rank)*0x9e3779b97f4a7c15 + uint64(tag) + 1)
	for i := range b {
		b[i] = byte(seed.next())
	}
}

// sweepRank is the per-rank request set.
type sweepRank struct {
	sendE, sendS *core.Psend
	recvW, recvN *core.Precv
}

// RunSweep executes the sweep pattern and returns per-iteration times.
func RunSweep(cfg SweepConfig) (SweepResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return SweepResult{}, err
	}
	nodes := cfg.GridX * cfg.GridY
	clCfg := cluster.NiagaraConfig(nodes)
	clCfg.CoresPerNode = cfg.CoresPerNode
	clCfg.Shards = cfg.Shards
	if cfg.Topo != "" {
		topo, err := fabric.ParseTopology(cfg.Topo)
		if err != nil {
			return SweepResult{}, err
		}
		clCfg.Fabric.Topo = topo
	}
	if err := clCfg.Validate(); err != nil {
		return SweepResult{}, err
	}
	w := mpi.NewWorld(mpi.Config{Cluster: clCfg})

	engines := make([]*core.Engine, nodes)
	for i := 0; i < nodes; i++ {
		eng, err := core.NewEngine(w.Rank(i), cfg.Provider)
		if err != nil {
			return SweepResult{}, err
		}
		engines[i] = eng
	}

	// Tags distinguish the two directions.
	const (
		tagEast  = 1
		tagSouth = 2
	)
	rankOf := func(x, y int) int { return y*cfg.GridX + x }

	total := cfg.Warmup + cfg.Iters
	res := SweepResult{
		// Wavefront critical path: (GridX-1 + GridY-1 + 1) compute steps.
		CriticalCompute: time.Duration(cfg.GridX+cfg.GridY-1) * cfg.Compute,
	}
	// Rank 0 records round starts and the south-east corner the round
	// ends, each into its own per-iteration slot; the wavefront times are
	// assembled after the run. No cross-rank reads happen mid-simulation,
	// so the pattern is race-free on a sharded cluster (and the assembled
	// values are identical to a serial run).
	iterStarts := make([]sim.Time, total)
	iterEnds := make([]sim.Time, total)
	adaptiveE := make([]*core.AdaptiveStats, nodes)
	adaptiveS := make([]*core.AdaptiveStats, nodes)
	bufSums := make([]uint64, nodes)
	laggard := cfg.Threads - 1

	err := w.RunWorkers(cfg.Workers, func(p *sim.Proc, r *mpi.Rank) {
		id := r.ID()
		x, y := id%cfg.GridX, id/cfg.GridX
		eng := engines[id]
		var sr sweepRank
		var err error

		// Persistent buffers per direction. Send buffers carry a
		// deterministic per-(rank, direction) byte pattern so the
		// differential digests witness real data movement, not just
		// matching zeroes.
		if x < cfg.GridX-1 {
			buf := make([]byte, cfg.Bytes)
			fillRankBuf(buf, id, tagEast)
			if sr.sendE, err = eng.PsendInit(p, buf, cfg.Threads, rankOf(x+1, y), tagEast, cfg.Opts); err != nil {
				panic(err)
			}
		}
		if y < cfg.GridY-1 {
			buf := make([]byte, cfg.Bytes)
			fillRankBuf(buf, id, tagSouth)
			if sr.sendS, err = eng.PsendInit(p, buf, cfg.Threads, rankOf(x, y+1), tagSouth, cfg.Opts); err != nil {
				panic(err)
			}
		}
		if x > 0 {
			buf := make([]byte, cfg.Bytes)
			if sr.recvW, err = eng.PrecvInit(p, buf, cfg.Threads, rankOf(x-1, y), tagEast, cfg.Opts); err != nil {
				panic(err)
			}
		}
		if y > 0 {
			buf := make([]byte, cfg.Bytes)
			if sr.recvN, err = eng.PrecvInit(p, buf, cfg.Threads, rankOf(x, y-1), tagSouth, cfg.Opts); err != nil {
				panic(err)
			}
		}

		// The group and the per-thread bodies are allocated once and reused
		// every round: with thousands of ranks iterating, per-round closures
		// are the dominant allocation source of the whole benchmark.
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
				if sr.sendE != nil {
					if err := sr.sendE.Pready(tp, t); err != nil {
						panic(err)
					}
				}
				if sr.sendS != nil {
					if err := sr.sendS.Pready(tp, t); err != nil {
						panic(err)
					}
				}
			}
		}

		for iter := 0; iter < total; iter++ {
			r.Barrier(p)
			if id == 0 {
				iterStarts[iter] = p.Now()
			}
			if arrivalPat != nil {
				arrivalPat.Delays(iter, arrivals)
			}
			// Arm all requests for the round.
			if sr.recvW != nil {
				sr.recvW.Start(p)
			}
			if sr.recvN != nil {
				sr.recvN.Start(p)
			}
			if sr.sendE != nil {
				sr.sendE.Start(p)
			}
			if sr.sendS != nil {
				sr.sendS.Start(p)
			}
			// Wait for the wavefront to reach this rank.
			if sr.recvW != nil {
				sr.recvW.Wait(p)
			}
			if sr.recvN != nil {
				sr.recvN.Wait(p)
			}
			// Compute and mark partitions ready toward east and south.
			for t := 0; t < cfg.Threads; t++ {
				g.Add(1)
				p.Engine().Spawn("sweep-thread", threads[t])
			}
			g.Wait(p)
			if sr.sendE != nil {
				sr.sendE.Wait(p)
			}
			if sr.sendS != nil {
				sr.sendS.Wait(p)
			}
			// The wavefront completes when the south-east corner finishes.
			if x == cfg.GridX-1 && y == cfg.GridY-1 {
				iterEnds[iter] = p.Now()
			}
		}
		// Per-rank telemetry and buffer digests land in this rank's own
		// slot — no cross-rank reads, so sharded runs stay race-free.
		if sr.sendE != nil {
			adaptiveE[id] = sr.sendE.AdaptiveStats()
		}
		if sr.sendS != nil {
			adaptiveS[id] = sr.sendS.AdaptiveStats()
		}
		sum := uint64(14695981039346656037) // FNV-1a offset basis
		for _, pr := range []*core.Precv{sr.recvW, sr.recvN} {
			if pr == nil {
				continue
			}
			for _, b := range pr.Buffer() {
				sum = (sum ^ uint64(b)) * 1099511628211
			}
		}
		bufSums[id] = sum
	})
	if err != nil {
		return SweepResult{}, err
	}
	for iter := cfg.Warmup; iter < total; iter++ {
		res.IterTimes = append(res.IterTimes, iterEnds[iter].Sub(iterStarts[iter]))
	}
	res.AdaptiveEast, res.AdaptiveSouth = adaptiveE, adaptiveS
	res.BufferSums = bufSums
	if set := w.Cluster().ShardSet(); set != nil {
		st := set.Stats()
		res.ShardStats = &st
	}
	return res, nil
}
