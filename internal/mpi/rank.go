package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"

	// Register the built-in transport providers so every world can resolve
	// them by name. The ucx provider registers via the verbs package's
	// import graph.
	_ "repro/internal/xport/shm"
	_ "repro/internal/xport/verbs"
)

// ctrlEnvelope is the wire format of control-plane messages. Delivery is
// per destination port; to routes the message to the right rank when
// several share a node.
type ctrlEnvelope struct {
	kind string
	from int
	to   *Rank
	data any
}

// Rank is one MPI process. Transport resources hang off provider
// instances resolved by name from the xport registry; each provider's
// completions are drained by the rank's single progress engine.
type Rank struct {
	w    *World
	id   int
	node *cluster.Node

	// providers memoizes backend instances by registry name so every
	// module on the rank shares one device context per backend.
	providers map[string]xport.Provider
	// sources are the providers' completion queues, drained in
	// registration order by Progress.
	sources []xport.ProgressSource

	// progressBusy implements the paper's single-threaded progress engine:
	// MPI_Parrived "tries to acquire a lock; if successful it progresses
	// all MPI messages ... otherwise it just returns".
	progressBusy bool

	// activity wakes procs blocked in WaitOn when completions or control
	// messages arrive.
	activity *sim.Cond

	ctrlHandlers map[string]func(from int, data any)

	// postLock serializes the library's post path (per-endpoint critical
	// section); oversubscribed threads contend here.
	postLock *sim.Resource

	barrier *barrierState

	// envFree recycles control-plane envelopes. Envelopes are taken by
	// this rank as a sender. Once the receiving rank's handler has
	// unpacked one, it goes back to the sender's list when both ranks share
	// an engine, so even one-way traffic stops allocating; across shards
	// each rank may touch only its own list, so the receiver keeps it, up
	// to one envelope per rank of the world: enough for a fan-out to every
	// rank (a barrier release), while one-way traffic cannot grow the list
	// without bound.
	envFree []*ctrlEnvelope

	// Stats.
	wcProcessed int64
	ctrlHandled int64
}

// Rank hosts transport providers.
var _ xport.Host = (*Rank)(nil)

func newRank(w *World, id int, node *cluster.Node) *Rank {
	// Everything the rank parks on lives on its node's engine (its shard):
	// ranks on other shards interact with it only through the fabric.
	r := &Rank{
		w:            w,
		id:           id,
		node:         node,
		providers:    make(map[string]xport.Provider),
		activity:     sim.NewCond(node.Engine),
		ctrlHandlers: make(map[string]func(int, any)),
		postLock:     sim.NewResource(node.Engine, 1),
		barrier:      &barrierState{release: sim.NewCond(node.Engine)},
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

// Hardware exposes the compute node for providers to downcast; the verbs
// provider expects a *cluster.Node carrying the HCA.
func (r *Rank) Hardware() any { return r.node }

// CompletionCost is the CPU time the progress engine charges per drained
// completion.
func (r *Rank) CompletionCost() time.Duration { return r.w.costs.WCProcess }

// AddProgressSource hooks a provider's completion queues into the rank's
// progress engine. Sources are drained in registration order.
func (r *Rank) AddProgressSource(s xport.ProgressSource) {
	r.sources = append(r.sources, s)
}

// Provider resolves (and memoizes) the named transport backend for this
// rank. All modules on the rank share the instance, so they share its
// device context, protection domain, and completion queues.
func (r *Rank) Provider(name string) (xport.Provider, error) {
	if pv, ok := r.providers[name]; ok {
		return pv, nil
	}
	pv, err := xport.NewProvider(name, r)
	if err != nil {
		return nil, err
	}
	r.providers[name] = pv
	return pv, nil
}

// Compute runs d of single-core application work (queuing for a core).
func (r *Rank) Compute(p *sim.Proc, d time.Duration) {
	r.node.Compute(p, d)
}

// WCProcessed reports completions drained by this rank's progress engine.
func (r *Rank) WCProcessed() int64 { return r.wcProcessed }

// HandleCtrl registers the handler for control messages of the given kind.
func (r *Rank) HandleCtrl(kind string, fn func(from int, data any)) {
	if _, dup := r.ctrlHandlers[kind]; dup {
		panic(fmt.Sprintf("mpi: duplicate control handler %q", kind))
	}
	r.ctrlHandlers[kind] = fn
}

// takeEnv pops a recycled control envelope or allocates a fresh one.
func (r *Rank) takeEnv() *ctrlEnvelope {
	if n := len(r.envFree); n > 0 {
		env := r.envFree[n-1]
		r.envFree[n-1] = nil
		r.envFree = r.envFree[:n-1]
		return env
	}
	return &ctrlEnvelope{}
}

// putEnv recycles an envelope this rank has unpacked (see envFree); one
// the rank has no room for is left to the collector.
func (r *Rank) putEnv(env *ctrlEnvelope) {
	owner := r.w.ranks[env.from]
	env.kind, env.from, env.to, env.data = "", 0, nil, nil
	switch {
	case owner.Engine() == r.Engine():
		owner.envFree = append(owner.envFree, env)
	case len(r.envFree) < len(r.w.ranks):
		r.envFree = append(r.envFree, env)
	}
}

// SendCtrl delivers (kind, data) to the destination rank's registered
// handler over the fabric control plane.
func (r *Rank) SendCtrl(dst int, kind string, data any) {
	dstRank := r.w.ranks[dst]
	env := r.takeEnv()
	env.kind, env.from, env.to, env.data = kind, r.id, dstRank, data
	r.node.HCA.Port().SendControl(dstRank.node.HCA.Port(), env)
}

// onCtrl dispatches an arriving control message. Handlers run at event
// context (no proc): they must only do bookkeeping and wake waiters.
func (r *Rank) onCtrl(env *ctrlEnvelope) {
	h, ok := r.ctrlHandlers[env.kind]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d: no handler for control kind %q", r.id, env.kind))
	}
	from, data := env.from, env.data
	r.putEnv(env)
	r.ctrlHandled++
	h(from, data)
	r.activity.Broadcast()
}

// Progress drains every provider's completion queues. It returns false
// immediately if another thread holds the progress lock (the paper's
// try-lock), and reports whether any completion was processed otherwise.
func (r *Rank) Progress(p *sim.Proc) bool {
	if r.progressBusy {
		return false
	}
	r.progressBusy = true
	worked := false
	for _, s := range r.sources {
		if n := s.Progress(p); n > 0 {
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

// PostLocked runs fn inside the library's per-rank post critical section,
// charging the configured hold time. Concurrent posters serialize.
func (r *Rank) PostLocked(p *sim.Proc, fn func()) {
	r.postLock.Acquire(p)
	p.Sleep(r.w.costs.PostLockHold)
	fn()
	r.postLock.Release()
}

// PostLock exposes the post critical section for callers whose locked
// region must itself consume virtual time (e.g. protocol layers that charge
// copy costs while holding the lock).
func (r *Rank) PostLock() *sim.Resource { return r.postLock }

// Wake broadcasts the rank's activity condition; modules use it after
// updating state that WaitOn predicates observe from other procs.
func (r *Rank) Wake() { r.activity.Broadcast() }
