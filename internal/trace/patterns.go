package trace

import (
	"fmt"
	"time"
)

// This file generates synthetic Pready arrival patterns: per-round,
// per-partition readiness delays that benchmark harnesses add to each
// compute thread before it calls MPI_Pready. The four kinds model the
// arrival regimes the adaptive aggregator must distinguish — uniform
// spread, bursty on/off phases, zipf-skewed per-thread imbalance, and a
// rotating straggler tail.
//
// Everything is a pure function of (Seed, round, partition) through
// SplitMix64, so generated schedules are replayable: no math/rand, no wall
// clock (the detertaint analyzer enforces both for this package).

// PatternKind selects an arrival regime.
type PatternKind int

const (
	// PatternUniform spreads arrivals evenly across [0, Spread) with
	// small per-partition jitter.
	PatternUniform PatternKind = iota
	// PatternBursty alternates calm phases (uniform, tight) and burst
	// phases (half the partitions delayed by the full Spread) every
	// burstLen rounds.
	PatternBursty
	// PatternZipf draws each partition's delay from a zipf-weighted ramp
	// with exponent 1 (ddtxn-style single-parameter skew): rank r of n
	// costs Spread/(r+1), with the rank-to-partition assignment reshuffled
	// deterministically each round — a few partitions are always late, but
	// which ones varies.
	PatternZipf
	// PatternStraggler delays one rotating partition by Spread while the
	// rest arrive within Spread/64.
	PatternStraggler
)

func (k PatternKind) String() string {
	switch k {
	case PatternUniform:
		return "uniform"
	case PatternBursty:
		return "bursty"
	case PatternZipf:
		return "zipf"
	case PatternStraggler:
		return "straggler"
	default:
		return "unknown pattern"
	}
}

// PatternKinds lists every kind in definition order (for benchmark grids).
func PatternKinds() []PatternKind {
	return []PatternKind{PatternUniform, PatternBursty, PatternZipf, PatternStraggler}
}

// ParsePatternKind maps a kind name (as String prints) back to its value.
func ParsePatternKind(name string) (PatternKind, error) {
	for _, k := range PatternKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown arrival pattern %q (want uniform, bursty, zipf, or straggler)", name)
}

// burstLen is PatternBursty's phase length in rounds.
const burstLen = 6

// ArrivalPattern generates per-round Pready delay schedules.
type ArrivalPattern struct {
	Kind PatternKind
	// Seed selects the pattern instance; the same seed replays the same
	// schedule.
	Seed uint64
	// Spread is the delay scale: the slowest partition of a round arrives
	// about this long after the round's first. Zero selects 200µs.
	Spread time.Duration

	// perm is the reusable rank-to-partition assignment scratch.
	perm []int
}

// Instance returns an independent pattern with the seed mixed by id —
// same parameters, fresh scratch. Benchmarks hand one instance to each
// rank so per-rank schedules differ but replay exactly, and no scratch is
// shared across simulation shards.
func (a *ArrivalPattern) Instance(id int) *ArrivalPattern {
	return &ArrivalPattern{
		Kind:   a.Kind,
		Seed:   a.Seed ^ (0x9e3779b97f4a7c15 * uint64(id+1)),
		Spread: a.Spread,
	}
}

// SplitMix64 is a seeded splitmix64 stream, the one generator behind the
// simulator's deterministic draws: arrival schedules here, and the
// benchmarks' per-thread jitter and buffer patterns. math/rand is banned
// from sim-reachable packages (partlint's detertaint analyzer), and a
// stream's draws are a pure function of its seed, so runs replay exactly.
// Callers reduce the raw draws to their ranges themselves.
type SplitMix64 uint64

// Next advances the stream and returns its next raw 64-bit draw.
func (s *SplitMix64) Next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform draw in [0, n).
func below(s *SplitMix64, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.Next() % uint64(n))
}

func (a *ArrivalPattern) spread() time.Duration {
	if a.Spread > 0 {
		return a.Spread
	}
	return 200 * time.Microsecond
}

// Delays fills out with the round's per-partition Pready delays and
// returns it (len(out) partitions). The result is a pure function of
// (Seed, Kind parameters, round, len(out)).
func (a *ArrivalPattern) Delays(round int, out []time.Duration) []time.Duration {
	n := len(out)
	if n == 0 {
		return out
	}
	// Mix the round into the seed so rounds draw independent streams but
	// replays are exact.
	s := SplitMix64(a.Seed + 0x9e3779b97f4a7c15*uint64(round+1))
	spread := a.spread()
	switch a.Kind {
	case PatternBursty:
		if (round/burstLen)%2 == 0 {
			// Calm phase: tight uniform arrivals.
			for i := range out {
				out[i] = time.Duration(below(&s, int64(spread)/16+1))
			}
			return out
		}
		// Burst phase: a random half of the partitions lags by ~Spread.
		for i := range out {
			late := below(&s, 2) == 1
			out[i] = time.Duration(below(&s, int64(spread)/16+1))
			if late {
				out[i] += spread
			}
		}
		return out
	case PatternZipf:
		// Delay for zipf rank r: Spread/(r+1) — rank 0 is the slowest. Assign ranks to partitions by a per-round
		// Fisher-Yates shuffle.
		if cap(a.perm) < n {
			a.perm = make([]int, n)
		}
		perm := a.perm[:n]
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := below(&s, int64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for r, part := range perm {
			out[part] = time.Duration(float64(spread) / float64(r+1))
		}
		return out
	case PatternStraggler:
		for i := range out {
			out[i] = time.Duration(below(&s, int64(spread)/64+1))
		}
		out[(int(a.Seed%uint64(n))+round)%n] = spread
		return out
	default: // PatternUniform
		for i := range out {
			out[i] = time.Duration(below(&s, int64(spread)))
		}
		return out
	}
}
