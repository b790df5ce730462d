// Package mpi is the miniature MPI runtime the partitioned-communication
// module (internal/core) plugs into: a world of ranks placed on cluster
// nodes, one verbs device context per rank (a protection domain and a
// send and a receive CQ shared by every queue pair the rank's modules
// create with Rank.CreateQP), a per-rank single-threaded progress engine
// with the try-lock discipline the paper describes in Section IV-A that
// drains those CQs into each queue pair's completion handler, a control
// plane for connection establishment and matching, and a barrier.
//
// It is deliberately the substrate, not the contribution: point-to-point
// data movement lives in internal/ucx and the MPI Partitioned interface in
// internal/core.
package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// The CPU path lengths of the MPI library itself — the costs that
// differentiate posting one aggregated work request from posting 32 small
// ones even when the wire is idle. They are fixed properties of the
// modelled library, like the paper's measured stack.
const (
	// WCProcess is charged per work completion drained by the progress
	// engine (CQ poll, request lookup, flag update).
	WCProcess = 100 * time.Nanosecond
	// PostOverhead is charged per ibv_post_send of a pre-built work
	// request (the doorbell path the partitioned module uses — the WRs
	// are created at init time, Section IV-B).
	PostOverhead = 150 * time.Nanosecond
	// PreadyOverhead is charged per MPI_Pready (the atomic add-and-fetch
	// on the transport-partition flag array).
	PreadyOverhead = 60 * time.Nanosecond
	// PostLockHold is the length of the library-wide critical section
	// around the traditional (baseline) send path; concurrent posters
	// serialize on it — the lock contention the paper's 128-partition
	// runs expose.
	PostLockHold = 250 * time.Nanosecond
	// RecvPostOverhead is charged per receive work request replenished in
	// MPI_Start.
	RecvPostOverhead = 100 * time.Nanosecond
	// StartOverhead is charged per MPI_Start call (request reset, flag
	// clearing).
	StartOverhead = 500 * time.Nanosecond
)

// Config describes an MPI job.
type Config struct {
	// Cluster is the machine shape.
	Cluster cluster.Config
	// RanksPerNode places this many ranks on each node; total world size
	// is Cluster.Nodes * RanksPerNode. Zero selects 1.
	RanksPerNode int
}

// World is one MPI job: a set of ranks on a cluster.
type World struct {
	cluster *cluster.Cluster
	ranks   []*Rank
}

// onCtrl is the per-node port handler: it routes an arriving control
// message to its destination rank (several ranks may share the port).
func (w *World) onCtrl(_ *fabric.Port, m fabric.Control) {
	w.ranks[m.To].onCtrl(m)
}

// NewWorld builds the job and its ranks. It panics on invalid
// configuration (construction-time programming error).
func NewWorld(cfg Config) *World {
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = 1
	}
	if cfg.RanksPerNode < 0 {
		panic(fmt.Sprintf("mpi: negative RanksPerNode %d", cfg.RanksPerNode))
	}
	c := cluster.New(cfg.Cluster)
	w := &World{cluster: c}
	for n, node := range c.Nodes {
		node.HCA.Port().SetControlHandler(w.onCtrl)
		for j := 0; j < cfg.RanksPerNode; j++ {
			w.ranks = append(w.ranks, newRank(w, n*cfg.RanksPerNode+j, node))
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Cluster returns the underlying machine.
func (w *World) Cluster() *cluster.Cluster { return w.cluster }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.cluster.Engine }

// Launch spawns one proc per rank running body and returns a Group that
// becomes zero when every rank's body has returned. Run the engine to
// completion (or wait on the group from another proc) to execute the job.
// Launch requires a serial world: a sharded job has no single engine a
// Group could live on — use Run, which tracks completion through the
// shard set's global drain instead.
func (w *World) Launch(body func(p *sim.Proc, r *Rank)) *sim.Group {
	if w.cluster.ShardSet() != nil {
		panic("mpi: Launch on a sharded world (Groups cannot span shards); use Run")
	}
	g := sim.NewGroup(w.Engine())
	g.Add(len(w.ranks))
	for _, r := range w.ranks {
		r := r
		w.Engine().Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			defer g.Done()
			body(p, r)
		})
	}
	return g
}

// Run launches body on every rank and drives the simulation to completion,
// returning the first error (proc panic or deadlock). On a sharded world
// each rank's proc is spawned on its node's shard engine and the shard
// set runs the job with its default worker fleet.
func (w *World) Run(body func(p *sim.Proc, r *Rank)) error {
	return w.RunWorkers(0, body)
}

// RunWorkers is Run with an explicit shard-fleet size (workers ≤ 0 selects
// the default); serial worlds ignore the count. Differential tests use it
// to prove results are independent of the worker count.
func (w *World) RunWorkers(workers int, body func(p *sim.Proc, r *Rank)) error {
	if w.cluster.ShardSet() == nil {
		w.Launch(body)
		return w.Engine().Run()
	}
	for _, r := range w.ranks {
		r := r
		r.node.Engine.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			body(p, r)
		})
	}
	return w.cluster.Run(workers)
}
