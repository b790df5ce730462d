package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// GridPattern selects the communication pattern of a grid run.
type GridPattern uint8

const (
	// Sweep3D is the wavefront of Section V-D: it starts at the
	// north-west corner, and each rank receives partitioned messages from
	// its west and north neighbours, computes, and sends east and south.
	// The paper runs it at 1024 cores: 16 threads x 64 nodes.
	Sweep3D GridPattern = iota
	// Halo is the 2-D halo exchange from the paper's benchmark suite
	// (reference [14] evaluates both a halo exchange and the sweep): every
	// rank exchanges partitioned face buffers with its four periodic
	// neighbours each iteration, each thread packing its share of every
	// face.
	Halo
	// P2P is the point-to-point benchmark of Sections V-B and V-C: rank 0
	// sends one partitioned message to rank 1 each round (two ranks on two
	// nodes, as on Niagara).
	P2P
)

// gridLink is one partitioned request of a rank: a send to, or a receive
// from, the neighbour at offset (dx, dy), matched by tag.
type gridLink struct {
	send   bool
	dx, dy int
	tag    int
}

// gridPattern is everything that tells one grid pattern from another.
type gridPattern struct {
	name string
	// links are each rank's requests in init order. On a non-periodic
	// grid a link whose neighbour falls off the edge is skipped.
	links    []gridLink
	periodic bool
	// recvFirst makes a rank wait for its inbound data before computing
	// (the wavefront dependency) instead of after.
	recvFirst bool
	// cornerEnd ends an iteration when the south-east corner rank
	// finishes instead of the slowest rank.
	cornerEnd bool
	// criticalSteps counts the compute steps on an iteration's critical
	// path for a gx x gy grid.
	criticalSteps func(gx, gy int) int
	// minGrid is the smallest grid side.
	minGrid int
	// grid, if set, is the only grid the pattern runs on and the default
	// shape.
	grid [2]int
	// sendersCompute limits the compute phase to ranks with a send
	// request. A rank that only receives calls no Pready, so in the
	// point-to-point protocol it never computes.
	sendersCompute bool
	// warmup and iters are the default iteration counts.
	warmup, iters int
}

var gridPatterns = [...]gridPattern{
	Sweep3D: {
		name: "sweep",
		links: []gridLink{
			{send: true, dx: 1, tag: 1}, // east
			{send: true, dy: 1, tag: 2}, // south
			{dx: -1, tag: 1},            // from the west
			{dy: -1, tag: 2},            // from the north
		},
		recvFirst:     true,
		cornerEnd:     true,
		criticalSteps: func(gx, gy int) int { return gx + gy - 1 },
		minGrid:       1,
		warmup:        3,
		iters:         10,
	},
	Halo: {
		name: "halo",
		// Each face is sent one way and received from the opposite
		// neighbour with the sender's tag.
		links: []gridLink{
			{send: true, dx: 1, tag: 101}, {dx: -1, tag: 101}, // east
			{send: true, dx: -1, tag: 102}, {dx: 1, tag: 102}, // west
			{send: true, dy: 1, tag: 103}, {dy: -1, tag: 103}, // south
			{send: true, dy: -1, tag: 104}, {dy: 1, tag: 104}, // north
		},
		periodic:      true,
		criticalSteps: func(gx, gy int) int { return 1 },
		// Periodic neighbours must be distinct.
		minGrid: 2,
		warmup:  3,
		iters:   10,
	},
	P2P: {
		name:           "p2p",
		links:          []gridLink{{send: true, dx: 1}, {dx: -1}},
		cornerEnd:      true,
		criticalSteps:  func(gx, gy int) int { return 1 },
		minGrid:        1,
		grid:           [2]int{2, 1},
		sendersCompute: true,
		warmup:         10,
		iters:          100,
	},
}

// GridConfig describes one run of a grid pattern: ranks form a 2-D grid
// (one rank per node; see NewWorld) and exchange partitioned messages with
// their neighbours, computing with one thread per partition.
type GridConfig struct {
	// Pattern selects the communication pattern (the zero value is
	// Sweep3D).
	Pattern GridPattern
	// GridX and GridY shape the rank grid. A pattern with a fixed grid
	// (P2P: 2×1) fills in zero values.
	GridX int
	GridY int
	// Threads is threads == user partitions per message (paper: 16).
	Threads int
	// Bytes is the per-neighbour message size (the total buffer of each
	// partitioned request).
	Bytes int
	// Compute is per-thread computation per iteration.
	Compute time.Duration
	// NoisePct delays the laggard thread, the last one, by
	// Compute*NoisePct/100 — the single-thread delay model (e.g. 100 ms
	// compute, 4 % noise = 4 ms).
	NoisePct float64
	// JitterPerThread adds deterministic pseudo-random skew to every
	// thread's compute time, the laggard's included, uniform in
	// [0, JitterPerThread * Threads) — the natural OS/OpenMP scheduling
	// noise that makes real arrival patterns spread (the paper's
	// Figures 10 and 12 depend on it). Each rank draws from its own
	// stream. Zero means no jitter, as in the overhead benchmark.
	JitterPerThread time.Duration
	// Warmup and Iters follow the paper's protocol; zero values select the
	// pattern's: 10 warm-up and 100 measured point-to-point, 3 and 10 for
	// the grids.
	Warmup int
	Iters  int
	// Opts selects the aggregation strategy under test.
	Opts core.Options
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
	// Arrival, if non-nil, adds a synthetic per-round, per-thread Pready
	// delay on top of Compute; each rank draws from its own seed-mixed
	// pattern instance, so schedules replay exactly and nothing is shared
	// across shards.
	Arrival *trace.ArrivalPattern
}

func (c GridConfig) withDefaults() GridConfig {
	if int(c.Pattern) >= len(gridPatterns) {
		return c
	}
	pat := &gridPatterns[c.Pattern]
	if c.GridX == 0 && c.GridY == 0 {
		c.GridX, c.GridY = pat.grid[0], pat.grid[1]
	}
	if c.Warmup == 0 {
		c.Warmup = pat.warmup
	}
	if c.Iters == 0 {
		c.Iters = pat.iters
	}
	return c
}

// Validate reports configuration errors.
func (c GridConfig) Validate() error {
	c = c.withDefaults()
	if int(c.Pattern) >= len(gridPatterns) {
		return fmt.Errorf("bench: unknown grid pattern %d", c.Pattern)
	}
	pat := &gridPatterns[c.Pattern]
	switch {
	case c.GridX < pat.minGrid || c.GridY < pat.minGrid:
		return fmt.Errorf("bench: %s grid %dx%d below the %dx%d minimum",
			pat.name, c.GridX, c.GridY, pat.minGrid, pat.minGrid)
	case pat.grid != [2]int{} && [2]int{c.GridX, c.GridY} != pat.grid:
		return fmt.Errorf("bench: %s runs on a %dx%d grid, not %dx%d",
			pat.name, pat.grid[0], pat.grid[1], c.GridX, c.GridY)
	case c.Threads < 1:
		return fmt.Errorf("bench: %s needs at least one thread", pat.name)
	case c.Bytes < c.Threads || c.Bytes%c.Threads != 0:
		return fmt.Errorf("bench: Bytes %d not divisible into %d partitions", c.Bytes, c.Threads)
	case c.Compute < 0 || c.NoisePct < 0 || c.JitterPerThread < 0:
		return fmt.Errorf("bench: negative compute, noise, or jitter")
	case c.Iters < 1 || c.Warmup < 0:
		return fmt.Errorf("bench: bad iteration counts warmup=%d iters=%d", c.Warmup, c.Iters)
	}
	return nil
}

// GridResult holds the per-iteration observations of a grid run.
type GridResult struct {
	// IterTimes is the full iteration time per measured iteration: from
	// rank 0's round start to the ending ranks' completion.
	IterTimes []time.Duration
	// LastLatency is the time from rank 0's last MPI_Pready to the
	// iteration's end — the perceived-bandwidth denominator.
	LastLatency []time.Duration
	// Profile is rank 0's arrival recording (includes warm-up rounds;
	// index with Warmup offset).
	Profile *profiler.Recorder
	// Warmup echoes the warm-up count used.
	Warmup int
	// Bytes echoes the message size.
	Bytes int
	// FabricMessages is rank 0's port's total message count (wire
	// efficiency).
	FabricMessages int64
	// CriticalCompute is the computation along an iteration's critical
	// path (subtracted to isolate communication time, as the paper does
	// for Figure 14).
	CriticalCompute time.Duration
	// ShardStats reports the conservative-PDES runtime counters (windows,
	// window-sync stalls, per-shard events, cross-shard posts) when the
	// run was sharded; nil for a serial run.
	ShardStats *sim.ShardStats
	// BufferSums is a per-rank FNV-1a digest (over 64-bit words) of the
	// final receive buffers in init order — the byte-identity witness for
	// differential runs.
	BufferSums []uint64
	// Adaptive is each rank's per-send decision telemetry in init order
	// (nil entries for static strategies). Differential tests compare it
	// across shard and worker counts.
	Adaptive [][]*core.AdaptiveStats
}

// MeanIterTime returns the mean iteration time.
func (r GridResult) MeanIterTime() time.Duration {
	if len(r.IterTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.IterTimes {
		sum += d
	}
	return sum / time.Duration(len(r.IterTimes))
}

// MeanCommTime returns mean(IterTimes) - CriticalCompute, clamped at a
// nanosecond to keep speedup ratios well-defined.
func (r GridResult) MeanCommTime() time.Duration {
	if len(r.IterTimes) == 0 {
		return 0
	}
	return max(r.MeanIterTime()-r.CriticalCompute, time.Nanosecond)
}

// MeanPerceivedBandwidth returns bytes per second perceived by the
// application: the message size over the last-partition latency.
func (r GridResult) MeanPerceivedBandwidth() float64 {
	if len(r.LastLatency) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.LastLatency {
		sum += float64(r.Bytes) / d.Seconds()
	}
	return sum / float64(len(r.LastLatency))
}

// fillRankBuf writes a deterministic per-(rank, tag) byte pattern: the
// 64-bit words of b step from a drawn start by a drawn odd stride, so no
// two words of a buffer are equal and a misplaced partition changes the
// digest.
func fillRankBuf(b []byte, rank, tag int) {
	seed := jitterPRNG(uint64(rank)*0x9e3779b97f4a7c15 + uint64(tag) + 1)
	v, stride := seed.next(), seed.next()|1
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, v)
		v += stride
	}
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// fnvWords folds b into an FNV-1a digest eight bytes per step, then the
// tail byte by byte.
func fnvWords(sum uint64, b []byte) uint64 {
	const prime = 1099511628211
	for ; len(b) >= 8; b = b[8:] {
		sum = (sum ^ binary.LittleEndian.Uint64(b)) * prime
	}
	for _, c := range b {
		sum = (sum ^ uint64(c)) * prime
	}
	return sum
}

// RunGrid executes a grid pattern and returns per-iteration observations.
func RunGrid(cfg GridConfig) (GridResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return GridResult{}, err
	}
	pat := &gridPatterns[cfg.Pattern]
	nodes := cfg.GridX * cfg.GridY
	w, engines, err := NewWorld(WorldSpec{
		Ranks:  nodes,
		Shards: cfg.Shards,
		Topo:   cfg.Topo,
	})
	if err != nil {
		return GridResult{}, err
	}

	total := cfg.Warmup + cfg.Iters
	res := GridResult{
		CriticalCompute: time.Duration(pat.criticalSteps(cfg.GridX, cfg.GridY)) * cfg.Compute,
		// The profile records rank 0 at the API boundary, as the paper's
		// PMPI-based profiler does: each round's Start and every thread's
		// Pready.
		Profile: profiler.New(cfg.Threads),
		Warmup:  cfg.Warmup,
		Bytes:   cfg.Bytes,
	}
	// Rank 0 records round starts and last-Pready instants and every rank
	// its own finishes, each into its own slots; the latencies are reduced
	// after the run. No cross-rank reads happen mid-simulation, so the
	// pattern is race-free on a sharded cluster (and the reduced values
	// are identical to a serial run).
	starts := make([]sim.Time, total)
	preadys := make([]sim.Time, total)
	ends := make([]sim.Time, nodes*total)
	adaptive := make([][]*core.AdaptiveStats, nodes)
	bufSums := make([]uint64, nodes)
	laggard := cfg.Threads - 1
	jitterSpan := cfg.JitterPerThread * time.Duration(cfg.Threads)
	threadName := pat.name + "-thread"

	err = w.RunWorkers(cfg.Workers, func(p *sim.Proc, r *mpi.Rank) {
		id := r.ID()
		x, y := id%cfg.GridX, id/cfg.GridX
		var sends []*core.Psend
		var recvs []*core.Precv
		// Send buffers carry a deterministic per-(rank, tag) byte pattern
		// so the differential digests witness real data movement, not just
		// matching zeroes.
		for _, l := range pat.links {
			nx, ny := x+l.dx, y+l.dy
			if pat.periodic {
				nx, ny = (nx+cfg.GridX)%cfg.GridX, (ny+cfg.GridY)%cfg.GridY
			} else if nx < 0 || nx >= cfg.GridX || ny < 0 || ny >= cfg.GridY {
				continue
			}
			peer := ny*cfg.GridX + nx
			buf := make([]byte, cfg.Bytes)
			if l.send {
				fillRankBuf(buf, id, l.tag)
				ps, err := engines[id].PsendInit(p, buf, cfg.Threads, peer, l.tag, cfg.Opts)
				if err != nil {
					panic(err)
				}
				sends = append(sends, ps)
			} else {
				pr, err := engines[id].PrecvInit(p, buf, cfg.Threads, peer, l.tag, cfg.Opts)
				if err != nil {
					panic(err)
				}
				recvs = append(recvs, pr)
			}
		}
		waitRecvs := func() {
			for _, pr := range recvs {
				if err := pr.Wait(p); err != nil {
					panic(err)
				}
			}
		}

		computes := len(sends) > 0 || !pat.sendersCompute
		var rec *profiler.Recorder
		if id == 0 {
			rec = res.Profile
		}

		// The group, the per-round delay draws and the per-thread bodies
		// are allocated once and reused every round: with thousands of
		// ranks iterating, per-round closures are the dominant allocation
		// source of the whole benchmark.
		g := sim.NewGroup(p.Engine())
		var arrivalPat *trace.ArrivalPattern
		var arrivals, jitters []time.Duration
		if cfg.Arrival != nil {
			arrivalPat = cfg.Arrival.Instance(id)
			arrivals = make([]time.Duration, cfg.Threads)
		}
		// Each rank draws jitter from its own stream; rank 0's seed is
		// 0x5eed.
		jitter := jitterPRNG(0x5eed + uint64(id)<<32)
		if jitterSpan > 0 {
			jitters = make([]time.Duration, cfg.Threads)
		}
		var round int
		var lastPready sim.Time
		threads := make([]func(tp *sim.Proc), cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			t := t
			threads[t] = func(tp *sim.Proc) {
				defer g.Done()
				compute := cfg.Compute
				if jitters != nil {
					compute += jitters[t]
				}
				if t == laggard {
					compute += time.Duration(float64(cfg.Compute) * cfg.NoisePct / 100)
				}
				if arrivals != nil {
					compute += arrivals[t]
				}
				if compute > 0 {
					r.Compute(tp, compute)
				}
				if rec != nil {
					rec.PreadyCalled(round, t, tp.Now())
				}
				for _, ps := range sends {
					if err := ps.Pready(tp, t); err != nil {
						panic(err)
					}
				}
				lastPready = max(lastPready, tp.Now())
			}
		}

		for iter := 0; iter < total; iter++ {
			r.Barrier(p)
			if id == 0 {
				starts[iter] = p.Now()
			}
			lastPready = 0
			// Arm all requests for the round, receives first.
			for _, pr := range recvs {
				if err := pr.Start(p); err != nil {
					panic(err)
				}
			}
			for _, ps := range sends {
				if err := ps.Start(p); err != nil {
					panic(err)
				}
			}
			round = iter + 1
			if rec != nil {
				rec.PsendStart(round, p.Now())
			}
			if pat.recvFirst {
				waitRecvs()
			}
			if computes {
				if arrivalPat != nil {
					arrivalPat.Delays(iter, arrivals)
				}
				for t := 0; t < cfg.Threads; t++ {
					g.Add(1)
					if jitters != nil {
						jitters[t] = time.Duration(jitter.int63n(int64(jitterSpan)))
					}
					p.Engine().Spawn(threadName, threads[t])
				}
				g.Wait(p)
			}
			if !pat.recvFirst {
				waitRecvs()
			}
			for _, ps := range sends {
				if err := ps.Wait(p); err != nil {
					panic(err)
				}
			}
			ends[id*total+iter] = p.Now()
			if id == 0 {
				preadys[iter] = lastPready
			}
		}
		// Per-rank telemetry and buffer digests land in this rank's own
		// slot — no cross-rank reads, so sharded runs stay race-free.
		for _, ps := range sends {
			adaptive[id] = append(adaptive[id], ps.AdaptiveStats())
		}
		sum := uint64(14695981039346656037) // FNV-1a offset basis
		for _, pr := range recvs {
			sum = fnvWords(sum, pr.Buffer())
		}
		bufSums[id] = sum
	})
	if err != nil {
		return GridResult{}, err
	}
	// An iteration ends when the last of its ending ranks finishes: the
	// south-east corner alone, or every rank.
	first := 0
	if pat.cornerEnd {
		first = nodes - 1
	}
	for iter := cfg.Warmup; iter < total; iter++ {
		end := ends[first*total+iter]
		for id := first + 1; id < nodes; id++ {
			end = max(end, ends[id*total+iter])
		}
		res.IterTimes = append(res.IterTimes, end.Sub(starts[iter]))
		res.LastLatency = append(res.LastLatency, end.Sub(preadys[iter]))
	}
	res.FabricMessages = w.Rank(0).Node().HCA.Port().MessagesSent()
	res.Adaptive = adaptive
	res.BufferSums = bufSums
	if set := w.Cluster().ShardSet(); set != nil {
		st := set.Stats()
		res.ShardStats = &st
	}
	return res, nil
}
