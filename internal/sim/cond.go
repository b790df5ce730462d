package sim

import "time"

// Cond is a virtual-time condition variable. Procs wait on it; any code
// (procs or event callbacks) may Signal or Broadcast. Unlike sync.Cond there
// is no associated lock: the engine's serialized execution already makes
// check-then-wait atomic, so the usual pattern is
//
//	for !condition {
//	    cond.Wait(p)
//	}
//
// with the condition re-checked after every wakeup.
type Cond struct {
	e *Engine
	// waiters is a head-indexed FIFO: Wait appends, Signal advances head.
	// When the queue drains, both reset so the backing array is reused
	// instead of leaking capacity off the front (steady-state zero-alloc).
	waiters []*condWaiter
	head    int
}

type condWaiter struct {
	p        *Proc
	c        *Cond // the cond of the current WaitTimeout, for its timeout event
	done     bool  // woken (signal or timeout) — ignore the other path
	timedOut bool
}

// NewCond returns a condition variable bound to the engine.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait parks the proc until Signal or Broadcast wakes it.
//
// The wait record is embedded in the Proc rather than allocated per call:
// a proc waits on at most one cond at a time, and a woken proc's record is
// always removed from the wait list before the proc is dispatched (Signal
// pops it, Broadcast empties the list, a timeout removes it), so reuse
// across waits is safe and parking is allocation-free.
func (c *Cond) Wait(p *Proc) {
	p.mustNotPark("Cond.Wait")
	if p.e != c.e {
		// A proc parking on another shard's cond would be woken from a
		// foreign engine's event loop — a cross-shard race. Catch the
		// miswiring at the wait, where the culprit is on the stack.
		panic("sim: proc waiting on a cond bound to a different engine")
	}
	w := &p.waiter
	w.done, w.timedOut = false, false
	c.waiters = append(c.waiters, w)
	p.park("waiting on cond")
}

// fireCondTimeout is the typed timeout event of WaitTimeout: it wakes the
// waiter unless a signal already has.
func fireCondTimeout(_ Time, arg any) {
	w := arg.(*condWaiter)
	if w.done {
		return
	}
	w.done = true
	w.timedOut = true
	w.c.remove(w)
	w.p.dispatch()
}

// WaitTimeout parks the proc until it is signaled or d elapses. It reports
// true if the proc was signaled and false on timeout. Like Wait it
// allocates nothing: the timeout is a typed event bound to the proc's
// embedded wait record, cancelled on an early wake by the same
// seq-guarded lazy rule as Timer.Stop.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	p.mustNotPark("Cond.WaitTimeout")
	if p.e != c.e {
		panic("sim: proc waiting on a cond bound to a different engine")
	}
	w := &p.waiter
	w.c, w.done, w.timedOut = c, false, false
	c.waiters = append(c.waiters, w)
	if d < 0 {
		d = 0
	}
	ev := c.e.scheduleCall(c.e.now.Add(d), fireCondTimeout, w)
	seq := ev.seq
	p.park("waiting on cond (with timeout)")
	c.e.cancel(ev, seq)
	w.c = nil
	return !w.timedOut
}

// Signal wakes the longest-waiting proc, if any. The woken proc runs after
// already-pending same-time events.
func (c *Cond) Signal() {
	for c.head < len(c.waiters) {
		w := c.waiters[c.head]
		c.waiters[c.head] = nil
		c.head++
		if c.head == len(c.waiters) {
			c.waiters = c.waiters[:0]
			c.head = 0
		}
		if w.done {
			continue
		}
		w.done = true
		c.e.scheduleCall(c.e.now, fireDispatch, w.p)
		return
	}
}

// Broadcast wakes all waiting procs in FIFO order.
func (c *Cond) Broadcast() {
	for i := c.head; i < len(c.waiters); i++ {
		w := c.waiters[i]
		c.waiters[i] = nil
		if w.done {
			continue
		}
		w.done = true
		c.e.scheduleCall(c.e.now, fireDispatch, w.p)
	}
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Waiters reports how many procs are currently parked on the cond.
func (c *Cond) Waiters() int {
	n := 0
	for _, w := range c.waiters[c.head:] {
		if !w.done {
			n++
		}
	}
	return n
}

func (c *Cond) remove(target *condWaiter) {
	for i := c.head; i < len(c.waiters); i++ {
		if c.waiters[i] == target {
			copy(c.waiters[i:], c.waiters[i+1:])
			last := len(c.waiters) - 1
			c.waiters[last] = nil
			c.waiters = c.waiters[:last]
			if c.head == len(c.waiters) {
				c.waiters = c.waiters[:0]
				c.head = 0
			}
			return
		}
	}
}

// Group waits for a collection of procs or activities to finish, like a
// virtual-time sync.WaitGroup.
type Group struct {
	n    int
	cond *Cond
}

// NewGroup returns a Group bound to the engine.
func NewGroup(e *Engine) *Group { return &Group{cond: NewCond(e)} }

// Add increments the outstanding-activity count by delta.
func (g *Group) Add(delta int) {
	g.n += delta
	if g.n < 0 {
		panic("sim: negative Group counter")
	}
	if g.n == 0 {
		g.cond.Broadcast()
	}
}

// Done decrements the outstanding-activity count by one.
func (g *Group) Done() { g.Add(-1) }

// Wait parks the proc until the counter reaches zero.
func (g *Group) Wait(p *Proc) {
	p.mustNotPark("Group.Wait")
	for g.n > 0 {
		g.cond.Wait(p)
	}
}
