package sim

import "time"

// Resource models a pool of identical servers (e.g. CPU cores) acquired in
// FIFO order. A proc that cannot get a free server parks until one is
// released. Hold and Use model the common grab-compute-release pattern;
// with more runnable procs than servers, virtual completion times stretch
// exactly as oversubscribed threads do on a real node.
type Resource struct {
	e       *Engine
	servers int
	inUse   int
	// queue is a head-indexed FIFO: Acquire appends, Release advances head.
	// When the queue drains, both reset so the backing array is reused
	// instead of leaking capacity off the front (steady-state zero-alloc).
	// Each waiter's requested hold is in its Proc.hold.
	queue []*Proc
	head  int
	// peak tracks the maximum simultaneous occupancy, for tests/metrics.
	peak int
}

// noHold marks a queued waiter that asked for a server alone (Acquire), so
// Release resumes it at the grant instead of starting a hold.
const noHold time.Duration = -1

// NewResource returns a resource with the given number of servers.
func NewResource(e *Engine, servers int) *Resource {
	if servers < 1 {
		panic("sim: Resource needs at least one server")
	}
	return &Resource{e: e, servers: servers}
}

// Servers returns the configured server count.
func (r *Resource) Servers() int { return r.servers }

// InUse returns the number of servers currently held.
func (r *Resource) InUse() int { return r.inUse }

// Queued returns the number of procs waiting for a server.
func (r *Resource) Queued() int { return len(r.queue) - r.head }

// Peak returns the maximum simultaneous occupancy observed.
func (r *Resource) Peak() int { return r.peak }

// Acquire obtains a server, parking the proc FIFO if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.tryAcquire(p) {
		return
	}
	r.acquireSlow(p, noHold)
}

// Hold obtains a server and keeps it for d of virtual time, returning with
// the server still held; the caller releases it. Negative d holds for zero
// time, as Sleep does. It is Acquire followed by Sleep(d), event for event:
// a proc that finds every server busy is queued with its hold, and the
// Release that passes it a server starts the hold in the grant event, so
// the proc is resumed once, when the hold ends, instead of at the grant
// and again after its Sleep.
func (r *Resource) Hold(p *Proc, d time.Duration) {
	if d < 0 {
		d = 0
	}
	if r.tryAcquire(p) {
		p.Sleep(d)
		return
	}
	r.acquireSlow(p, d)
}

// tryAcquire takes a free server if there is one.
func (r *Resource) tryAcquire(p *Proc) bool {
	if p.e != r.e {
		// See Cond.Wait: a cross-engine park would be a cross-shard race.
		panic("sim: proc acquiring a resource bound to a different engine")
	}
	if r.inUse < r.servers {
		r.inUse++
		if r.inUse > r.peak {
			r.peak = r.inUse
		}
		return true
	}
	return false
}

// acquireSlow parks the proc behind the FIFO with the hold it asked for
// (noHold for Acquire). Off the per-event budget: the proc is about to
// block anyway, and the queue's backing array is reused across drains
// (see the queue field comment).
func (r *Resource) acquireSlow(p *Proc, hold time.Duration) {
	p.hold = hold
	r.queue = append(r.queue, p)
	p.park("waiting for resource")
}

// Release frees a server, handing it directly to the longest-waiting proc
// if any. It may be called from procs or event callbacks.
//
// The hand-off is an event at the current instant: a plain Acquire waiter
// is dispatched by it, and a Hold or Use waiter's hold starts in it (see
// fireGrant). Either way the event takes the slot the waiter's dispatch
// would.
func (r *Resource) Release() {
	if r.head < len(r.queue) {
		next := r.queue[r.head]
		r.queue[r.head] = nil
		r.head++
		if r.head == len(r.queue) {
			r.queue = r.queue[:0]
			r.head = 0
		}
		// Occupancy is unchanged: the server passes to next.
		if next.hold == noHold {
			r.e.scheduleCall(r.e.now, fireDispatch, next)
		} else {
			r.e.scheduleCall(r.e.now, fireGrant, next)
		}
		return
	}
	if r.inUse == 0 {
		panic("sim: Release of an idle resource")
	}
	r.inUse--
}

// fireGrant starts a queued Hold waiter's hold at its grant instant: it
// schedules the proc's wake-up at now+hold exactly as the proc's own Sleep
// would have right after a dispatch here, so the wake-up gets the same
// (at, seq) and the proc stays parked until it. The grant replaces the
// dispatch event and the wake-up the Sleep's, so the event count is the
// one Acquire-then-Sleep gives.
func fireGrant(now Time, arg any) {
	p := arg.(*Proc)
	p.e.scheduleCall(now.Add(p.hold), fireDispatch, p)
}

// Use acquires a server, holds it for d of virtual time, and releases it.
// This models executing d worth of work on one core.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Hold(p, d)
	r.Release()
}
