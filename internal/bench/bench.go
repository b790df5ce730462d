// Package bench implements the micro-benchmarks the paper evaluates with —
// the public MPI Partitioned benchmark suite of Temuçin et al. (ICPP'22,
// reference [14]) that Section V builds on:
//
//   - the overhead benchmark (Section V-B): no injected noise, one user
//     partition per thread, measuring wire efficiency per round;
//   - the perceived-bandwidth benchmark (Section V-C): each thread
//     computes (with injected noise on a single laggard thread — the
//     "single thread delay model"), marks its partition ready, and the
//     metric is total bytes divided by the latency between the last
//     MPI_Pready and receive-side completion;
//   - the Sweep3D communication pattern (Section V-D): a 2-D wavefront
//     over a rank grid with partitioned sends east and south;
//   - the halo exchange, the suite's other grid pattern: partitioned face
//     buffers to and from the four periodic neighbours of every rank.
//
// RunP2P drives the first two; RunGrid drives both grid patterns with one
// rank body, the pattern being data (GridPattern). Every run builds its
// machine with NewWorld. Benchmarks follow the paper's protocol: warm-up
// iterations are discarded and one user partition is assigned to each
// thread.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// jitterPRNG is a seeded splitmix64 generator. The per-thread skew draws
// must be deterministic across runs and math/rand is banned from
// sim-reachable packages (partlint's detertaint analyzer), so the few
// bits needed come from this local generator.
type jitterPRNG uint64

func (s *jitterPRNG) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// int63n returns a draw in [0, n) for n > 0 (modulo bias is irrelevant at
// jitter magnitudes).
func (s *jitterPRNG) int63n(n int64) int64 {
	return int64(s.next()>>1) % n
}

// P2PConfig describes one point-to-point benchmark run (two ranks on two
// nodes, as on Niagara; on one node under the shm provider).
type P2PConfig struct {
	// Parts is the user partition count == thread count (paper protocol).
	Parts int
	// Bytes is the total buffer size.
	Bytes int
	// Compute is per-thread computation before Pready (0 for the overhead
	// benchmark).
	Compute time.Duration
	// NoisePct delays the laggard thread by Compute*NoisePct/100 — the
	// single-thread delay model (e.g. 100 ms compute, 4 % noise = 4 ms).
	NoisePct float64
	// JitterPerThread adds deterministic pseudo-random skew to every
	// non-laggard thread's compute time, uniform in
	// [0, JitterPerThread * Parts) — the natural OS/OpenMP scheduling
	// noise that makes real arrival patterns spread (the paper's
	// Figures 10 and 12 depend on it). Zero means no jitter, as in the
	// overhead benchmark.
	JitterPerThread time.Duration
	// Laggard selects the delayed thread; -1 (and the zero value via
	// DefaultLaggard) selects the last thread.
	Laggard int
	// Arrival, if non-nil, adds a synthetic per-round, per-thread Pready
	// delay schedule (uniform/bursty/zipf/straggler) on top of Compute —
	// the arrival regimes the adaptive aggregator is evaluated against.
	// The run draws from its own pattern instance, so the caller's value
	// is never mutated and schedules replay exactly.
	Arrival *trace.ArrivalPattern
	// Warmup and Iters follow the paper: 10 warm-up, 100 measured for
	// point-to-point (zero values select those).
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
	// default single-link fabric — byte-identical to "single-link".
	Topo string
}

func (c P2PConfig) withDefaults() P2PConfig {
	if c.Warmup == 0 {
		c.Warmup = 10
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.Laggard == 0 {
		c.Laggard = -1
	}
	return c
}

// Validate reports configuration errors.
func (c P2PConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Parts < 1:
		return fmt.Errorf("bench: Parts %d must be positive", c.Parts)
	case c.Bytes < c.Parts || c.Bytes%c.Parts != 0:
		return fmt.Errorf("bench: Bytes %d not divisible into %d partitions", c.Bytes, c.Parts)
	case c.Compute < 0 || c.NoisePct < 0 || c.JitterPerThread < 0:
		return fmt.Errorf("bench: negative compute, noise, or jitter")
	case c.Iters < 1 || c.Warmup < 0:
		return fmt.Errorf("bench: bad iteration counts warmup=%d iters=%d", c.Warmup, c.Iters)
	}
	return nil
}

// P2PResult holds per-measured-iteration observations.
type P2PResult struct {
	// IterTimes is receiver-observed time per round: from the
	// synchronized round start to all partitions arrived.
	IterTimes []time.Duration
	// LastLatency is the time from the last MPI_Pready to receive-side
	// completion — the perceived-bandwidth denominator.
	LastLatency []time.Duration
	// Profile is the sender-side arrival recording (includes warm-up
	// rounds; index with Warmup offset).
	Profile *profiler.Recorder
	// Warmup echoes the warm-up count used.
	Warmup int
	// Bytes echoes the buffer size.
	Bytes int
	// FabricMessages is the sender port's total message count (wire
	// efficiency).
	FabricMessages int64
	// Adaptive is the sender's decision telemetry when the run used
	// StrategyAdaptive; nil otherwise.
	Adaptive *core.AdaptiveStats
}

// MeanIterTime returns the mean round time.
func (r P2PResult) MeanIterTime() time.Duration {
	var sum time.Duration
	for _, d := range r.IterTimes {
		sum += d
	}
	if len(r.IterTimes) == 0 {
		return 0
	}
	return sum / time.Duration(len(r.IterTimes))
}

// MeanPerceivedBandwidth returns bytes per second perceived by the
// application: total bytes over the last-partition latency.
func (r P2PResult) MeanPerceivedBandwidth() float64 {
	if len(r.LastLatency) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.LastLatency {
		sum += float64(r.Bytes) / d.Seconds()
	}
	return sum / float64(len(r.LastLatency))
}

// laggardDelay returns the extra delay of the laggard thread.
func (c P2PConfig) laggardDelay() time.Duration {
	return time.Duration(float64(c.Compute) * c.NoisePct / 100)
}

// RunP2P executes the point-to-point benchmark and returns per-iteration
// measurements.
func RunP2P(cfg P2PConfig) (P2PResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return P2PResult{}, err
	}
	w, engines, err := NewWorld(WorldSpec{
		Ranks:    2,
		Provider: cfg.Provider,
		Shards:   cfg.Shards,
		Topo:     cfg.Topo,
	}, core.NewEngine)
	if err != nil {
		return P2PResult{}, err
	}

	// rec profiles the sender at the API boundary, as the paper's
	// PMPI-based profiler does: each round's Start and every Pready call.
	rec := profiler.New(cfg.Parts)

	laggard := cfg.Laggard
	if laggard < 0 || laggard >= cfg.Parts {
		laggard = cfg.Parts - 1
	}

	total := cfg.Warmup + cfg.Iters
	res := P2PResult{Profile: rec, Warmup: cfg.Warmup, Bytes: cfg.Bytes}
	jitterRng := jitterPRNG(0x5eed)
	jitterSpan := cfg.JitterPerThread * time.Duration(cfg.Parts)
	// Each side records its own timestamps per measured round — the sender
	// its round starts and last-Pready instants, the receiver its
	// completion instants — and the latencies are assembled after the run.
	// Nothing is shared across ranks mid-simulation, so the benchmark is
	// race-free when the two ranks live on different shards of a sharded
	// cluster (and the assembled values are identical to a serial run:
	// round i's completion always follows round i's start and readiness).
	starts := make([]sim.Time, cfg.Iters)
	preadys := make([]sim.Time, cfg.Iters)
	dones := make([]sim.Time, cfg.Iters)
	var adaptive *core.AdaptiveStats

	sendBuf := make([]byte, cfg.Bytes)
	recvBuf := make([]byte, cfg.Bytes)

	err = w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, err := engines[0].PsendInit(p, sendBuf, cfg.Parts, 1, 0, cfg.Opts)
			if err != nil {
				panic(err)
			}
			// The group, the per-round jitter draws, and the per-thread
			// bodies are allocated once and reused every round: spawning
			// Parts worker procs per iteration is the engine's fork-join
			// hot path, and rebuilding closures each round would dominate
			// the benchmark's allocation profile.
			g := sim.NewGroup(p.Engine())
			jitters := make([]time.Duration, cfg.Parts)
			var arrivalPat *trace.ArrivalPattern
			var arrivals []time.Duration
			if cfg.Arrival != nil {
				arrivalPat = cfg.Arrival.Instance(0)
				arrivals = make([]time.Duration, cfg.Parts)
			}
			threads := make([]func(tp *sim.Proc), cfg.Parts)
			var round int
			var lastPready sim.Time
			for t := 0; t < cfg.Parts; t++ {
				t := t
				threads[t] = func(tp *sim.Proc) {
					defer g.Done()
					compute := cfg.Compute + jitters[t]
					if t == laggard {
						compute += cfg.laggardDelay()
					}
					if arrivals != nil {
						compute += arrivals[t]
					}
					if compute > 0 {
						r.Compute(tp, compute)
					}
					rec.PreadyCalled(round, t, tp.Now())
					if err := ps.Pready(tp, t); err != nil {
						panic(err)
					}
					if tp.Now() > lastPready {
						lastPready = tp.Now()
					}
				}
			}
			for iter := 0; iter < total; iter++ {
				r.Barrier(p)
				roundStart := p.Now()
				lastPready = 0
				if err := ps.Start(p); err != nil {
					panic(err)
				}
				round = iter + 1
				rec.PsendStart(round, p.Now())
				if arrivalPat != nil {
					arrivalPat.Delays(iter, arrivals)
				}
				for t := 0; t < cfg.Parts; t++ {
					g.Add(1)
					jitters[t] = 0
					if jitterSpan > 0 {
						jitters[t] = time.Duration(jitterRng.int63n(int64(jitterSpan)))
					}
					p.Engine().Spawn("sender-thread", threads[t])
				}
				g.Wait(p)
				if err := ps.Wait(p); err != nil {
					panic(err)
				}
				if iter >= cfg.Warmup {
					starts[iter-cfg.Warmup] = roundStart
					preadys[iter-cfg.Warmup] = lastPready
				}
			}
			adaptive = ps.AdaptiveStats()
		case 1:
			pr, err := engines[1].PrecvInit(p, recvBuf, cfg.Parts, 0, 0, cfg.Opts)
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
				if iter >= cfg.Warmup {
					dones[iter-cfg.Warmup] = p.Now()
				}
			}
		}
	})
	if err != nil {
		return P2PResult{}, err
	}
	for i := 0; i < cfg.Iters; i++ {
		res.IterTimes = append(res.IterTimes, dones[i].Sub(starts[i]))
		res.LastLatency = append(res.LastLatency, dones[i].Sub(preadys[i]))
	}
	res.FabricMessages = w.Rank(0).Node().HCA.Port().MessagesSent()
	res.Adaptive = adaptive
	return res, nil
}
