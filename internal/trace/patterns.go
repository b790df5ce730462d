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
// splitmix64, so generated schedules are replayable: no math/rand, no wall
// clock (the detertaint analyzer enforces both for this package).

// PatternKind selects an arrival regime.
type PatternKind int

const (
	// PatternUniform spreads arrivals evenly across [0, Spread) with
	// small per-partition jitter.
	PatternUniform PatternKind = iota
	// PatternBursty alternates calm phases (uniform, tight) and burst
	// phases (half the partitions delayed by the full Spread) every
	// BurstLen rounds.
	PatternBursty
	// PatternZipf draws each partition's delay from a zipf-weighted ramp:
	// rank r of n costs Spread/(r+1)^Theta, with the rank-to-partition
	// assignment reshuffled deterministically each round — a few
	// partitions are always late, but which ones varies.
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

// ArrivalPattern generates per-round Pready delay schedules.
type ArrivalPattern struct {
	Kind PatternKind
	// Seed selects the pattern instance; the same seed replays the same
	// schedule.
	Seed uint64
	// Spread is the delay scale: the slowest partition of a round arrives
	// about this long after the round's first. Zero selects 200µs.
	Spread time.Duration
	// Theta is the zipf exponent (PatternZipf only). Zero selects 1.0 —
	// ddtxn-style single-parameter skew.
	Theta float64
	// BurstLen is the phase length in rounds (PatternBursty only). Zero
	// selects 6.
	BurstLen int

	// perm is the reusable rank-to-partition assignment scratch.
	perm []int
}

// Instance returns an independent pattern with the seed mixed by id —
// same parameters, fresh scratch. Benchmarks hand one instance to each
// rank so per-rank schedules differ but replay exactly, and no scratch is
// shared across simulation shards.
func (a *ArrivalPattern) Instance(id int) *ArrivalPattern {
	return &ArrivalPattern{
		Kind:     a.Kind,
		Seed:     a.Seed ^ (0x9e3779b97f4a7c15 * uint64(id+1)),
		Spread:   a.Spread,
		Theta:    a.Theta,
		BurstLen: a.BurstLen,
	}
}

// splitmix64 advances *s and returns the next raw 64-bit draw — the same
// generator the bench jitter PRNG uses.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform draw in [0, n).
func below(s *uint64, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(splitmix64(s) % uint64(n))
}

func (a *ArrivalPattern) spread() time.Duration {
	if a.Spread > 0 {
		return a.Spread
	}
	return 200 * time.Microsecond
}

func (a *ArrivalPattern) burstLen() int {
	if a.BurstLen > 0 {
		return a.BurstLen
	}
	return 6
}

func (a *ArrivalPattern) theta() float64 {
	if a.Theta > 0 {
		return a.Theta
	}
	return 1.0
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
	s := a.Seed + 0x9e3779b97f4a7c15*uint64(round+1)
	spread := a.spread()
	switch a.Kind {
	case PatternBursty:
		if (round/a.burstLen())%2 == 0 {
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
		// Delay for zipf rank r: Spread/(r+1)^Theta — rank 0 is the
		// slowest. Assign ranks to partitions by a per-round
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
		th := a.theta()
		for r, part := range perm {
			out[part] = time.Duration(float64(spread) / powf(float64(r+1), th))
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

// powf computes x**y for x ≥ 1 without importing math (exp/ln via the
// standard library would be fine determinism-wise, but a short binary
// decomposition over integer-ish exponents keeps the dependency surface
// minimal and bit-stable across platforms).
func powf(x, y float64) float64 {
	if x <= 1 || y == 0 {
		return 1
	}
	// Integer part by repeated multiplication, fractional part by
	// square-root bisection: y = k + f, x^f via 16 halvings.
	k := int(y)
	r := 1.0
	for i := 0; i < k; i++ {
		r *= x
	}
	f := y - float64(k)
	if f > 0 {
		base := x
		for i := 0; i < 16; i++ {
			base = sqrtf(base)
			f *= 2
			if f >= 1 {
				r *= base
				f -= 1
			}
		}
	}
	return r
}

// sqrtf is Newton's method on float64 — deterministic and dependency-free.
func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 32; i++ {
		g = (g + x/g) / 2
	}
	return g
}
