// Package profiler is the reproduction's equivalent of the paper's
// PMPI-based MPI Partitioned profiler (Section V-A, footnote 1): it takes
// the MPI_Start and MPI_Pready calls of a send request, records the
// per-round arrival pattern of user partitions, and derives the figures
// built from that data — the arrival timelines of Figures 10 and 11 and
// the minimum-δ estimate of Figure 12.
package profiler

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Round is the recorded arrival pattern of one communication round.
type Round struct {
	// StartAt is when MPI_Start ran.
	StartAt sim.Time
	// PreadyAt[i] is when MPI_Pready was called for user partition i;
	// zero-valued entries with Seen false were never marked.
	PreadyAt []sim.Time
	Seen     []bool
}

// ComputeTimes returns each partition's time from Start to Pready — the
// green bars of the paper's Figures 10/11.
func (r *Round) ComputeTimes() []time.Duration {
	out := make([]time.Duration, len(r.PreadyAt))
	for i := range r.PreadyAt {
		if r.Seen[i] {
			out[i] = r.PreadyAt[i].Sub(r.StartAt)
		}
	}
	return out
}

// Laggard returns the index of the last partition to be marked ready.
func (r *Round) Laggard() int {
	last, at := -1, sim.Time(-1)
	for i, seen := range r.Seen {
		if seen && r.PreadyAt[i] > at {
			last, at = i, r.PreadyAt[i]
		}
	}
	return last
}

// Spread returns the time between the first and last non-laggard arrival —
// the per-round quantity behind the paper's minimum-δ estimate: a δ at
// least this large covers every partition except the laggard.
func (r *Round) Spread() time.Duration {
	laggard := r.Laggard()
	first, last := sim.Time(-1), sim.Time(-1)
	for i, seen := range r.Seen {
		if !seen || i == laggard {
			continue
		}
		if first < 0 || r.PreadyAt[i] < first {
			first = r.PreadyAt[i]
		}
		if r.PreadyAt[i] > last {
			last = r.PreadyAt[i]
		}
	}
	if first < 0 {
		return 0
	}
	return last.Sub(first)
}

// arenaRounds is how many rounds' worth of per-partition storage each
// arena chunk holds; rounds are carved out of the chunk so recording
// amortizes to three allocations per arenaRounds rounds instead of three
// per round (Round struct + PreadyAt + Seen).
const arenaRounds = 64

// Recorder accumulates one Round per Start. The caller records at the API
// boundary, the way PMPI wraps the calls: PsendStart once Start returns,
// PreadyCalled just before each Pready.
// Recorded rounds are retained for post-run analysis, so per-round slices
// cannot literally be reused — instead they are block-allocated from
// arenas (see arenaRounds) to cut the per-round allocation churn of long
// profiled sweeps.
type Recorder struct {
	parts  int
	rounds []*Round
	// Arena tails; each PsendStart carves the next round's storage off
	// these and refills them arenaRounds at a time.
	roundArena []Round
	timeArena  []sim.Time
	seenArena  []bool
}

// New creates a recorder for a request with the given partition count.
func New(parts int) *Recorder {
	if parts < 1 {
		panic("profiler: need at least one partition")
	}
	return &Recorder{parts: parts}
}

// PsendStart records the beginning of a round.
func (rec *Recorder) PsendStart(round int, at sim.Time) {
	if round != len(rec.rounds)+1 {
		panic(fmt.Sprintf("profiler: round %d out of sequence (have %d)", round, len(rec.rounds)))
	}
	if len(rec.roundArena) == 0 {
		rec.roundArena = make([]Round, arenaRounds)
		rec.timeArena = make([]sim.Time, arenaRounds*rec.parts)
		rec.seenArena = make([]bool, arenaRounds*rec.parts)
	}
	r := &rec.roundArena[0]
	rec.roundArena = rec.roundArena[1:]
	r.StartAt = at
	r.PreadyAt = rec.timeArena[:rec.parts:rec.parts]
	r.Seen = rec.seenArena[:rec.parts:rec.parts]
	rec.timeArena = rec.timeArena[rec.parts:]
	rec.seenArena = rec.seenArena[rec.parts:]
	rec.rounds = append(rec.rounds, r)
}

// PreadyCalled records one partition's arrival.
func (rec *Recorder) PreadyCalled(round, part int, at sim.Time) {
	if round < 1 || round > len(rec.rounds) {
		panic(fmt.Sprintf("profiler: Pready for unknown round %d", round))
	}
	r := rec.rounds[round-1]
	if part < 0 || part >= rec.parts {
		panic(fmt.Sprintf("profiler: partition %d out of range", part))
	}
	if r.Seen[part] {
		panic(fmt.Sprintf("profiler: duplicate Pready for partition %d in round %d", part, round))
	}
	r.Seen[part] = true
	r.PreadyAt[part] = at
}

// Rounds returns the number of recorded rounds.
func (rec *Recorder) Rounds() int { return len(rec.rounds) }

// Round returns recorded round i (zero-based), or nil if out of range.
func (rec *Recorder) Round(i int) *Round {
	if i < 0 || i >= len(rec.rounds) {
		return nil
	}
	return rec.rounds[i]
}

// MinDelta estimates the minimum useful δ for the timer-based aggregator
// as the paper does for Figure 12: average, over the measured rounds, of
// the spread between the first and last non-laggard arrival. Rounds before
// skip (warm-up) are excluded.
func (rec *Recorder) MinDelta(skip int) time.Duration {
	var sum time.Duration
	n := 0
	for i := skip; i < len(rec.rounds); i++ {
		sum += rec.rounds[i].Spread()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// MeanArrival returns, per partition, the average Start→Pready time over
// rounds >= skip — the per-partition profile of Figures 10/11.
func (rec *Recorder) MeanArrival(skip int) []time.Duration {
	out := make([]time.Duration, rec.parts)
	n := 0
	for i := skip; i < len(rec.rounds); i++ {
		ct := rec.rounds[i].ComputeTimes()
		for p, d := range ct {
			out[p] += d
		}
		n++
	}
	if n == 0 {
		return out
	}
	for p := range out {
		out[p] /= time.Duration(n)
	}
	return out
}
