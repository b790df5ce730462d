// Package ploggp implements the Partitioned LogGP (PLogGP) model the paper
// uses to choose transport partition counts (Schonbein et al., ICPP 2023;
// paper Section II-C, IV-C).
//
// The model evaluates the many-before-one arrival scenario: all but one of
// the sending threads mark their partitions ready simultaneously at time 0
// and a single laggard arrives after a delay D. Aggregating S bytes into n
// transport partitions of k = S/n bytes each, the modelled completion time
// is
//
//	T(n) = D + o_s + G·(k-1) + L + n·o_r
//
// i.e. the n-1 early partitions are assumed fully overlapped with the
// laggard's delay (ideal early-bird transmission), the critical path after
// the laggard is one k-byte message, and the receiver pays a per-message
// completion cost for all n messages when it drains them at MPI_Wait. The
// n·o_r term penalizes splitting small buffers; the G·S/n term rewards
// splitting large ones; the optimum grows as sqrt(G·S/o_r), which is what
// produces the power-of-two doubling per 4x size in the paper's Table I.
//
// CompletionTimePipelined additionally models the early train contending
// for the wire (the effect the paper's Figure 11 profiling exposes at
// 128 MiB); it is provided for ablation and is deliberately not used for
// partition selection, matching the paper.
package ploggp

import (
	"fmt"
	"time"

	"repro/internal/loggp"
)

// Model predicts partitioned-communication completion times from LogGP
// parameters. If Table is non-nil, per-size parameters are looked up there
// (the PLogGP Aggregator's "hash table where the key is the message size");
// otherwise Params is used for every size.
type Model struct {
	Params loggp.Params
	Table  *loggp.Table
}

// New returns a model using a single parameter set for all sizes.
func New(p loggp.Params) *Model { return &Model{Params: p} }

// NewWithTable returns a model with per-message-size parameters and a
// fallback set for sizes the table does not cover.
func NewWithTable(t *loggp.Table, fallback loggp.Params) *Model {
	return &Model{Params: fallback, Table: t}
}

// ParamsFor returns the parameter set the model uses for an aggregate
// message of the given size.
func (m *Model) ParamsFor(size int) loggp.Params {
	if m.Table != nil {
		if p, ok := m.Table.Lookup(size); ok {
			return p
		}
	}
	return m.Params
}

// partitionBytes returns the per-partition size (ceiling division).
func partitionBytes(totalBytes, n int) int {
	if n <= 0 {
		panic("ploggp: non-positive partition count")
	}
	return (totalBytes + n - 1) / n
}

// CompletionTime returns the modelled time for totalBytes sent as n
// transport partitions under the many-before-one scenario with the given
// laggard delay.
func (m *Model) CompletionTime(n, totalBytes int, delay time.Duration) time.Duration {
	if totalBytes <= 0 {
		panic(fmt.Sprintf("ploggp: non-positive message size %d", totalBytes))
	}
	p := m.ParamsFor(totalBytes)
	k := partitionBytes(totalBytes, n)
	body := 0
	if k > 0 {
		body = k - 1
	}
	return delay + p.Os + p.ByteTime(body) + p.L + time.Duration(n)*p.Or
}

// CompletionTimePipelined is the ablation variant that also charges the
// early train's wire occupancy: the laggard's injection waits for
// max(delay, sender pipeline), so ideal early-bird overlap is no longer
// assumed. This reproduces the bandwidth-limited behaviour the paper
// profiles at 128 MiB (Figure 11).
func (m *Model) CompletionTimePipelined(n, totalBytes int, delay time.Duration) time.Duration {
	if totalBytes <= 0 {
		panic(fmt.Sprintf("ploggp: non-positive message size %d", totalBytes))
	}
	p := m.ParamsFor(totalBytes)
	k := partitionBytes(totalBytes, n)
	body := 0
	if k > 0 {
		body = k - 1
	}
	gb := p.ByteTime(body)
	// Early train: n-1 messages injected back-to-back from time 0, each
	// occupying the sender for Gb plus the inter-message gap.
	pipeline := time.Duration(n-1) * (gb + p.MsgGap())
	start := delay
	if pipeline > start {
		start = pipeline
	}
	lastArrival := start + p.Os + gb + p.L
	// Receiver drains all n completions after the last arrival.
	return lastArrival + time.Duration(n)*p.Or
}

// OptimalTransport returns the power-of-two transport partition count in
// [1, userParts] minimizing CompletionTime, mirroring Section IV-C: only
// powers of two are considered and the count never exceeds the user's
// request (no disaggregation).
func (m *Model) OptimalTransport(totalBytes, userParts int, delay time.Duration) int {
	best, bestT := 1, m.CompletionTime(1, totalBytes, delay)
	for n := 2; n <= userParts; n *= 2 {
		if t := m.CompletionTime(n, totalBytes, delay); t < bestT {
			best, bestT = n, t
		}
	}
	return best
}

// CurvePoint is one modelled (message size, completion time) sample.
type CurvePoint struct {
	Bytes      int
	Partitions int
	Time       time.Duration
}

// Curve evaluates the model across message sizes for a fixed partition
// count — one line of the paper's Figure 3.
func (m *Model) Curve(sizes []int, partitions int, delay time.Duration) []CurvePoint {
	out := make([]CurvePoint, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, CurvePoint{
			Bytes:      s,
			Partitions: partitions,
			Time:       m.CompletionTime(partitions, s, delay),
		})
	}
	return out
}

// TableRow is one row of the paper's Table I: a message-size range and the
// transport partition count the model selects throughout it.
type TableRow struct {
	MinBytes   int
	MaxBytes   int
	Partitions int
}

// SummaryTable sweeps power-of-two message sizes in [minBytes, maxBytes]
// and coalesces adjacent sizes with equal optima into ranges, regenerating
// the paper's Table I.
func (m *Model) SummaryTable(minBytes, maxBytes, userParts int, delay time.Duration) []TableRow {
	if minBytes <= 0 || maxBytes < minBytes {
		panic("ploggp: bad SummaryTable range")
	}
	var rows []TableRow
	for s := minBytes; s <= maxBytes; s *= 2 {
		n := m.OptimalTransport(s, userParts, delay)
		if len(rows) > 0 && rows[len(rows)-1].Partitions == n {
			rows[len(rows)-1].MaxBytes = s
			continue
		}
		rows = append(rows, TableRow{MinBytes: s, MaxBytes: s, Partitions: n})
	}
	return rows
}
