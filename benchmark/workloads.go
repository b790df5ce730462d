package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// shape is a workload's communication pattern.
type shape int

const (
	// shapeP2P: rank 0 sends one partitioned message to rank 1 per round.
	shapeP2P shape = iota
	// shapeSweep: a 2-D wavefront. Each rank waits for its west and north
	// neighbours, computes, and sends east and south.
	shapeSweep
	// shapeHalo: a periodic 2-D halo. Every rank exchanges a face with
	// each of its four neighbours per round.
	shapeHalo
)

// workload is one set of inputs the benchmark runs. Every round is closed
// loop: it starts at a barrier that follows the previous round.
type workload struct {
	name string
	why  string

	shape        shape
	gridX, gridY int
	// threads is the number of compute threads per rank, which is also the
	// number of user partitions per request (one partition per thread).
	threads int
	// bytes is the size of one request's buffer.
	bytes int
	// compute is each thread's work before its Pready. noisePct adds a
	// seeded uniform extra of up to that share of compute per thread and
	// round.
	compute  time.Duration
	noisePct float64
	// skew delays each thread's Pready by a seeded idle time in [0, skew):
	// it makes the arrival order vary with the seed without adding compute.
	skew time.Duration
	// pattern and spread add a seeded arrival pattern on top of compute
	// when spread is non-zero.
	pattern trace.PatternKind
	spread  time.Duration

	strategy core.Strategy
	topo     string // fabric.ParseTopology spec; empty keeps the single link
	shards   int    // conservative-PDES shards; 1 runs the serial engine

	warmup, rounds int
}

// workloads are the four paper workloads. Each stresses a different layer;
// the README explains which end-to-end metric each one guards.
var workloads = []*workload{
	{
		name:     "p2p-overhead",
		why:      "2 ranks, 32 partitions of 512 B, no compute: bound by per-partition software cost in sim and core",
		shape:    shapeP2P,
		gridX:    2,
		gridY:    1,
		threads:  32,
		bytes:    16 << 10,
		skew:     2 * time.Microsecond,
		strategy: core.StrategyTimerPLogGP,
		shards:   1,
		warmup:   50,
		rounds:   3000,
	},
	{
		name:     "p2p-arrival",
		why:      "2 ranks, 16 x 16 KiB, seeded bursty arrivals (half the partitions 60 us late in burst phases), adaptive strategy: aggregation policy sets the tail",
		shape:    shapeP2P,
		gridX:    2,
		gridY:    1,
		threads:  16,
		bytes:    256 << 10,
		compute:  20 * time.Microsecond,
		pattern:  trace.PatternBursty,
		spread:   60 * time.Microsecond,
		strategy: core.StrategyAdaptive,
		shards:   1,
		warmup:   50,
		rounds:   3000,
	},
	{
		name:     "sweep3d-1024",
		why:      "32x32-rank wavefront on 2 PDES shards: sim.shard, the 1024-rank barrier, setup and memory dominate",
		shape:    shapeSweep,
		gridX:    32,
		gridY:    32,
		threads:  4,
		bytes:    16 << 10,
		compute:  20 * time.Microsecond,
		noisePct: 5,
		strategy: core.StrategyPLogGP,
		shards:   2,
		warmup:   2,
		rounds:   16,
	},
	{
		name:    "halo-fattree",
		why:     "8x4 periodic halo on a k=8 fat-tree: the only workload on the routed per-hop fabric pipeline",
		shape:   shapeHalo,
		gridX:   8,
		gridY:   4,
		threads: 8,
		// 8 KiB faces keep the 128 buffers (2 MiB) in cache. With 64 KiB
		// faces the run was bound by copying payloads through memory, and
		// its throughput moved with the neighbours' memory traffic (12 %
		// quartile spread over ten seeds against 1.6 %).
		bytes:    8 << 10,
		compute:  10 * time.Microsecond,
		noisePct: 4,
		strategy: core.StrategyTimerPLogGP,
		topo:     "fat-tree:k=8",
		shards:   1,
		warmup:   5,
		rounds:   100,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ranks returns the world size.
func (w *workload) ranks() int { return w.gridX * w.gridY }

// link is one partitioned message per round: a Psend on src matched to a
// Precv on dst. Its index in links() identifies the request.
type link struct{ src, dst, tag int }

// links enumerates the workload's requests.
func (w *workload) links() []link {
	at := func(x, y int) int {
		x = (x + w.gridX) % w.gridX
		y = (y + w.gridY) % w.gridY
		return y*w.gridX + x
	}
	var ls []link
	switch w.shape {
	case shapeP2P:
		ls = append(ls, link{src: 0, dst: 1})
	case shapeSweep:
		for y := 0; y < w.gridY; y++ {
			for x := 0; x < w.gridX; x++ {
				if x < w.gridX-1 {
					ls = append(ls, link{src: at(x, y), dst: at(x+1, y), tag: 1})
				}
				if y < w.gridY-1 {
					ls = append(ls, link{src: at(x, y), dst: at(x, y+1), tag: 2})
				}
			}
		}
	case shapeHalo:
		dirs := []struct{ dx, dy, tag int }{{1, 0, 101}, {-1, 0, 102}, {0, 1, 103}, {0, -1, 104}}
		for y := 0; y < w.gridY; y++ {
			for x := 0; x < w.gridX; x++ {
				for _, d := range dirs {
					ls = append(ls, link{src: at(x, y), dst: at(x+d.dx, y+d.dy), tag: d.tag})
				}
			}
		}
	}
	return ls
}

// computes reports whether a rank runs compute threads every round: every
// rank of a sweep or halo does, only the sender of a point-to-point pair.
func (w *workload) computes(sends int) bool {
	return w.shape != shapeP2P || sends > 0
}

// threadDelay returns thread t's compute time and idle time before its
// Pready in the given round. arrival is the round's arrival-pattern delay
// for the thread (zero without a pattern). Draws are a pure function of
// (seed, rank, round, thread), so any shard layout replays them exactly.
func (w *workload) threadDelay(seed uint64, rank, round, t int, arrival time.Duration) (cpu, idle time.Duration) {
	cpu = w.compute + arrival
	if w.noisePct > 0 {
		u := unit(mix(seed, 1, uint64(rank), uint64(round), uint64(t)))
		cpu += time.Duration(float64(w.compute) * w.noisePct / 100 * u)
	}
	if w.skew > 0 {
		idle = time.Duration(float64(w.skew) * unit(mix(seed, 2, uint64(rank), uint64(round), uint64(t))))
	}
	return cpu, idle
}

// mix hashes its arguments with splitmix64 finalisers; the benchmark
// derives every seeded input from it.
func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
