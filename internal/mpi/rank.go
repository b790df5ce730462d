package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/ibv"
	"repro/internal/sim"
)

// Rank is one MPI process. It owns one device context on its node's HCA,
// opened on first use (PD, CreateQP): one protection domain and one send
// and one receive CQ shared by every queue pair a module on the rank
// creates. The rank's single progress engine drains both CQs.
type Rank struct {
	w    *World
	id   int
	node *cluster.Node

	// pd, sendCQ and recvCQ are the device context; nil until first use.
	pd     *ibv.PD
	sendCQ *ibv.CQ
	recvCQ *ibv.CQ
	// onWC routes completions by queue-pair number: the HCA numbers its
	// QPs densely from 1, so QPN n sits at index n-1. Entries for QPs of
	// other ranks on the same HCA stay nil.
	onWC []func(p *sim.Proc, wc ibv.WC)
	// wcs is the drain's batch buffer, allocated on the first drain so
	// that setup does not pay for it. The progress try-lock rules out
	// re-entry, so one buffer suffices.
	wcs []ibv.WC

	// progressBusy implements the paper's single-threaded progress engine:
	// MPI_Parrived "tries to acquire a lock; if successful it progresses
	// all MPI messages ... otherwise it just returns".
	progressBusy bool

	// activity wakes procs blocked in WaitOn when completions or control
	// messages arrive.
	activity *sim.Cond

	// ctrlHandlers lists the registered control kinds in registration
	// order; onCtrl scans it. A rank registers at most about ten kinds, so
	// the scan costs less than a hash map in both time and memory.
	ctrlHandlers []ctrlEntry

	// postLock serializes the library's post path (per-endpoint critical
	// section); oversubscribed threads contend here.
	postLock *sim.Resource

	barrier *barrierState

	// Stats.
	wcProcessed int64
	ctrlHandled int64
}

func newRank(w *World, id int, node *cluster.Node) *Rank {
	// Everything the rank parks on lives on its node's engine (its shard):
	// ranks on other shards interact with it only through the fabric.
	r := &Rank{
		w:        w,
		id:       id,
		node:     node,
		activity: sim.NewCond(node.Engine),
		postLock: sim.NewResource(node.Engine, 1),
		barrier:  &barrierState{release: sim.NewCond(node.Engine)},
	}
	r.initBarrierHandlers()
	return r
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// World returns the job this rank belongs to.
func (r *Rank) World() *World { return r.w }

// Node returns the compute node hosting the rank.
func (r *Rank) Node() *cluster.Node { return r.node }

// Engine returns the engine (shard) the rank's simulation state lives on.
func (r *Rank) Engine() *sim.Engine { return r.node.Engine }

// PD returns the rank's protection domain, opening the device context on
// the node's HCA on first use. Every module on the rank registers its
// memory here.
func (r *Rank) PD() *ibv.PD {
	if r.pd == nil {
		ctx := r.node.HCA.Open()
		r.pd = ctx.AllocPD()
		r.sendCQ = ctx.CreateCQ(1 << 16)
		r.recvCQ = ctx.CreateCQ(1 << 16)
		// A landing completion wakes the rank, as a completion channel
		// would, so WaitOn predicates re-evaluate.
		r.sendCQ.SetNotify(r.Wake)
		r.recvCQ.SetNotify(r.Wake)
	}
	return r.pd
}

// CreateQP creates a queue pair on the rank's PD and shared CQs (any CQs
// set in cfg are replaced), moves it to INIT, and routes its completions
// to onWC. onWC runs inside the progress engine's drain: it must record
// state and wake waiters, never park. The drain marks the proc while onWC
// runs (sim.Proc.SetInHandler), so a park in onWC, or in anything it
// calls, makes Run fail with a *sim.HandlerParkError.
func (r *Rank) CreateQP(cfg ibv.QPConfig, onWC func(p *sim.Proc, wc ibv.WC)) (*ibv.QP, error) {
	if onWC == nil {
		return nil, fmt.Errorf("mpi: CreateQP requires a completion handler")
	}
	pd := r.PD()
	cfg.SendCQ, cfg.RecvCQ = r.sendCQ, r.recvCQ
	qp, err := pd.CreateQP(cfg)
	if err != nil {
		return nil, err
	}
	if err := qp.ToInit(); err != nil {
		return nil, err
	}
	for uint32(len(r.onWC)) < qp.QPN() {
		r.onWC = append(r.onWC, nil)
	}
	r.onWC[qp.QPN()-1] = onWC
	return qp, nil
}

// Compute runs d of single-core application work (queuing for a core).
func (r *Rank) Compute(p *sim.Proc, d time.Duration) {
	r.node.Compute(p, d)
}

// WCProcessed reports completions drained by this rank's progress engine.
func (r *Rank) WCProcessed() int64 { return r.wcProcessed }

// ctrlEntry is one registered control kind.
type ctrlEntry struct {
	kind string
	fn   func(from int, data any)
}

// HandleCtrl registers the handler for control messages of the given kind.
func (r *Rank) HandleCtrl(kind string, fn func(from int, data any)) {
	if r.handlerFor(kind) != nil {
		panic(fmt.Sprintf("mpi: duplicate control handler %q", kind))
	}
	r.ctrlHandlers = append(r.ctrlHandlers, ctrlEntry{kind: kind, fn: fn})
}

// handlerFor returns the handler registered for kind, or nil.
func (r *Rank) handlerFor(kind string) func(from int, data any) {
	for i := range r.ctrlHandlers {
		if r.ctrlHandlers[i].kind == kind {
			return r.ctrlHandlers[i].fn
		}
	}
	return nil
}

// SendCtrl delivers (kind, data) to the destination rank's registered
// handler over the fabric control plane. The port's control record is the
// message's only record, and the fabric recycles it.
func (r *Rank) SendCtrl(dst int, kind string, data any) {
	r.node.HCA.Port().SendControl(r.w.ranks[dst].node.HCA.Port(),
		fabric.Control{Kind: kind, From: int32(r.id), To: int32(dst), Data: data})
}

// onCtrl dispatches an arriving control message. Handlers run at event
// context (no proc): they must only do bookkeeping and wake waiters.
func (r *Rank) onCtrl(m fabric.Control) {
	h := r.handlerFor(m.Kind)
	if h == nil {
		panic(fmt.Sprintf("mpi: rank %d: no handler for control kind %q", r.id, m.Kind))
	}
	r.ctrlHandled++
	h(int(m.From), m.Data)
	r.activity.Broadcast()
}

// Progress drains the rank's completion queues. It returns false
// immediately if another thread holds the progress lock (the paper's
// try-lock), and reports whether any completion was processed otherwise.
func (r *Rank) Progress(p *sim.Proc) bool {
	if r.progressBusy {
		return false
	}
	r.progressBusy = true
	worked := false
	if r.pd != nil {
		if n := r.drain(p); n > 0 {
			r.wcProcessed += int64(n)
			worked = true
		}
	}
	r.progressBusy = false
	if worked {
		r.activity.Broadcast()
	}
	return worked
}

// drain polls every completion currently queued, charging WCProcess per
// item and dispatching each to its queue pair's handler; it returns the
// number drained. It drains the receive CQ in batches of 64 until empty,
// falling back to the send CQ, until both are dry.
func (r *Rank) drain(p *sim.Proc) int {
	if r.wcs == nil {
		r.wcs = make([]ibv.WC, 64)
	}
	wcs := r.wcs
	drained := 0
	for {
		n := r.recvCQ.Poll(wcs)
		if n == 0 {
			n = r.sendCQ.Poll(wcs)
		}
		if n == 0 {
			return drained
		}
		for _, wc := range wcs[:n] {
			p.Sleep(WCProcess)
			var h func(p *sim.Proc, wc ibv.WC)
			if i := wc.QPN - 1; i < uint32(len(r.onWC)) {
				h = r.onWC[i]
			}
			if h == nil {
				panic(fmt.Sprintf("mpi: rank %d: completion for unregistered QPN %d: %+v", r.id, wc.QPN, wc))
			}
			// The handler must not park: the mark makes every sim
			// primitive that waits on another party fail in it.
			p.SetInHandler(true)
			h(p, wc)
			p.SetInHandler(false)
		}
		drained += n
	}
}

// WaitOn blocks the proc until pred() holds, progressing the rank's
// communication while it waits. This is the engine under MPI_Wait,
// MPI_Test-in-a-loop, and the first-Start readiness poll.
func (r *Rank) WaitOn(p *sim.Proc, pred func() bool) {
	for !pred() {
		if r.Progress(p) {
			continue
		}
		if pred() {
			return
		}
		// Nothing to progress (or another thread owns the lock): park
		// until completions or control traffic arrive.
		r.activity.Wait(p)
	}
}

// PostLock exposes the post critical section for callers whose locked
// region must itself consume virtual time (e.g. protocol layers that charge
// copy costs while holding the lock).
func (r *Rank) PostLock() *sim.Resource { return r.postLock }

// Wake broadcasts the rank's activity condition; modules use it after
// updating state that WaitOn predicates observe from other procs.
func (r *Rank) Wake() { r.activity.Broadcast() }
