// Package partib is the public API of the reproduction: MPI Partitioned
// Point-to-Point Communication mapped onto a software InfiniBand Verbs
// device, with the aggregation designs of "A Dynamic Network-Native MPI
// Partitioned Aggregation Over InfiniBand Verbs" (CLUSTER 2023).
//
// A downstream user builds a simulated job, creates one partitioned Engine
// per rank, and programs against the MPI-4.0 partitioned lifecycle:
//
//	job, err := partib.NewJob(partib.JobConfig{Nodes: 2})
//	if err != nil {
//	    return err
//	}
//	engines := make([]*partib.Engine, job.Size())
//	for i := range engines {
//	    engines[i], _ = partib.NewEngine(job.Rank(i))
//	}
//	err = job.Run(func(p *partib.Proc, r *partib.Rank) {
//	    eng := engines[r.ID()]
//	    switch r.ID() {
//	    case 0:
//	        ps, _ := eng.PsendInit(p, buf, parts, 1, tag, partib.Options{
//	            Strategy: partib.StrategyTimerPLogGP,
//	        })
//	        ps.Start(p)
//	        // ... threads call ps.Pready(tp, i) ...
//	        ps.Wait(p)
//	    case 1:
//	        pr, _ := eng.PrecvInit(p, buf, parts, 0, tag, partib.Options{})
//	        pr.Start(p)
//	        pr.Wait(p)
//	    }
//	})
//
// Everything runs in deterministic virtual time on a discrete-event
// engine; Proc.Now reports virtual timestamps and Rank.Compute models CPU
// work on the node's cores. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package partib

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Core lifecycle types, re-exported from the implementation packages.
type (
	// World is an MPI job: a set of ranks on a simulated cluster.
	World = mpi.World
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Proc is a simulated thread of execution.
	Proc = sim.Proc
	// Time is a virtual timestamp (nanoseconds since simulation start).
	Time = sim.Time
	// Group awaits a set of procs, like a virtual-time sync.WaitGroup.
	Group = sim.Group

	// Engine is the per-rank partitioned-communication module.
	Engine = core.Engine
	// Psend is a persistent partitioned send request.
	Psend = core.Psend
	// Precv is a persistent partitioned receive request.
	Precv = core.Precv
	// Options selects the aggregation strategy and its parameters.
	Options = core.Options
	// TuningTable holds brute-force aggregation choices.
	TuningTable = core.TuningTable
)

// Aggregation strategies (paper Section IV): the per-partition baseline
// and the timer-based PLogGP aggregator the examples compare.
const (
	// StrategyBaseline sends one message per user partition through a
	// UCX-like layer (the Open MPI part_persist stand-in).
	StrategyBaseline = core.StrategyBaseline
	// StrategyTimerPLogGP aggregates per the PLogGP model and adds the
	// δ-timer early-bird mechanism.
	StrategyTimerPLogGP = core.StrategyTimerPLogGP
)

// JobConfig shapes a simulated MPI job.
type JobConfig struct {
	// Nodes is the number of compute nodes (each with one EDR-like HCA).
	// Zero selects 2.
	Nodes int
	// CoresPerNode is the CPU cores per node. Zero selects Niagara's 40.
	CoresPerNode int
	// RanksPerNode places this many ranks per node. Zero selects 1.
	RanksPerNode int
}

// NewJob builds a simulated MPI job on a Niagara-like cluster. A negative
// field is an error.
func NewJob(cfg JobConfig) (*World, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	cl := cluster.NiagaraConfig(cfg.Nodes)
	if cfg.CoresPerNode != 0 {
		cl.CoresPerNode = cfg.CoresPerNode
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("partib: %w", err)
	}
	if cfg.RanksPerNode < 0 {
		return nil, fmt.Errorf("partib: negative RanksPerNode %d", cfg.RanksPerNode)
	}
	return mpi.NewWorld(mpi.Config{Cluster: cl, RanksPerNode: cfg.RanksPerNode}), nil
}

// NewEngine creates the partitioned-communication module for a rank over
// the rank's verbs transport. Create exactly one per rank.
func NewEngine(r *Rank) (*Engine, error) { return core.NewEngine(r, "") }

// NewGroup returns a Group bound to the job's engine, for joining
// simulated threads spawned with SpawnThread.
func NewGroup(w *World) *Group { return sim.NewGroup(w.Engine()) }

// SpawnThread starts a simulated application thread (e.g. one OpenMP
// worker of a parallel region) and returns after registering it; join via
// the Group.
func SpawnThread(w *World, g *Group, name string, body func(p *Proc)) {
	g.Add(1)
	w.Engine().Spawn(name, func(p *Proc) {
		defer g.Done()
		body(p)
	})
}
