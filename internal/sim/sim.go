// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered event queue. Simulated
// threads of execution ("procs", see Proc) are cooperative coroutines that
// run one at a time: exactly one proc (or event callback) executes at any
// instant, and control returns to the engine whenever a proc blocks in
// virtual time (Sleep, Cond.Wait, Resource.Acquire, ...). This serialization
// makes simulations fully deterministic and race-free while letting
// simulated code read like ordinary imperative Go.
//
// All timestamps are of type Time (virtual nanoseconds since the start of
// the simulation); durations use time.Duration. Executing Go code costs zero
// virtual time — time advances only through explicit waits and scheduled
// events, which is the standard LogGP-style simulation discipline used by
// the rest of this repository.
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the timestamp to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp in seconds since time zero.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports the timestamp in microseconds since time zero.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// event is a single scheduled callback. It carries either a plain closure
// (fn) or a typed pre-bound callback (fire + arg): the typed form lets
// steady-state schedulers reuse one top-level function with a receiver
// argument instead of allocating a fresh closure per event.
type event struct {
	at        Time
	seq       uint64 // tiebreaker: FIFO among same-time events
	fn        func()
	fire      func(Time, any)
	arg       any
	next      *event // intrusive link: ring / bucket FIFO chains
	cancelled bool
	queued    bool // in some queue tier; false once popped or recycled
}

// eventLess orders events by (at, seq): time order with FIFO tie-break.
// It is the single comparison used by all three queue tiers, which is what
// keeps cross-tier dispatch order identical to a flat priority queue.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Calendar-queue geometry. The near window is numBuckets ticks of
// 2^bucketShift nanoseconds each: with 2.048 µs ticks and 256 buckets the
// window spans ~524 µs, which covers the LogGP o/L/g steps, CQ notify
// latencies, and flow-burst gaps that dominate steady-state scheduling
// (all µs-scale), while ms-scale δ-timers and compute sleeps overflow to
// the far heap and migrate into the window as the clock approaches them.
const (
	bucketShift = 11
	numBuckets  = 256
	bucketMask  = numBuckets - 1
)

// tickOf maps a timestamp to its calendar tick.
func tickOf(t Time) int64 { return int64(t) >> bucketShift }

// DeadlockError is returned by Run when the event queue drains while
// non-daemon procs are still parked: nothing can ever wake them.
type DeadlockError struct {
	// Procs lists the name and park reason of each stuck proc.
	Procs []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d proc(s) parked with no pending events: %v", len(e.Procs), e.Procs)
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
//
// The event queue is a three-tier calendar queue specialized to *event
// (no container/heap, no interface dispatch, no per-push any-boxing):
//
//   - ring: a FIFO of events scheduled at exactly Now() — wakeups, yields
//     and handoffs dispatched from inside a callback bypass ordering
//     entirely (append-tail/pop-head on an intrusive list, O(1)).
//   - buckets: a ring of numBuckets per-tick buckets covering the near
//     window [anchor, anchor+numBuckets) ticks. Each bucket is an
//     intrusive chain through the events themselves (no per-slot slice
//     storage, so steady state touches no allocator at all), kept sorted
//     by (at, seq): dispatch pops the chain head in O(1), and insertion
//     is an O(1) tail append for the dominant in-order patterns (bursts
//     of same-instant wakeups, monotone LogGP step trains, refill
//     migration) with a bounded in-chain walk otherwise.
//   - far: a monomorphic 4-ary min-heap ordered by (at, seq) for events
//     beyond the window; they migrate into the buckets in batches when
//     the window drains and re-anchors (refill).
//
// Cancellation is lazy: Timer.Stop marks the event and the queue skips and
// recycles it whenever a scan encounters it, so Stop is O(1) in all tiers.
type Engine struct {
	now     Time
	seq     uint64
	free    []*event // recycled event structs (see alloc/recycle)
	pending int      // live (scheduled, non-cancelled) events — O(1) Pending
	live    map[*Proc]struct{}
	running *Proc
	err     error
	// procFree recycles Proc shells (struct + coroutine) of exited procs
	// within a run; releaseShells empties it when the run returns. See
	// Spawn.
	procFree []*Proc

	// shard links the engine to its ShardSet when it runs as one shard of
	// a conservative parallel simulation (see shard.go); nil for serial
	// engines. shardID is the engine's index within the set.
	shard   *ShardSet
	shardID int
	// winEnd is the exclusive upper bound of the shard window the engine is
	// currently executing (runWindow). It is written by the worker that
	// claimed the shard before the window starts and may be pulled earlier
	// by the engine's own cross-shard posts (the dynamic self-cap in
	// ShardSet.post), so it is only ever touched from the owning worker.
	winEnd Time

	// Tier 0: same-instant dispatch ring (all entries have at == now).
	ringH *event
	ringT *event

	// Tier 1: near-window calendar buckets (FIFO chain head/tail plus an
	// occupancy count per slot). anchor is the first tick of the window;
	// cursor is the next tick to drain (slots for ticks in [anchor,
	// cursor) are empty). nbucket counts entries across all buckets,
	// including cancelled ones awaiting lazy removal.
	buckets [numBuckets]*event
	tails   [numBuckets]*event
	blen    [numBuckets]int32
	nbucket int
	anchor  int64
	cursor  int64
	// nowClean records that the current instant's bucket holds no event
	// at exactly now, so ring pops can skip the bucket probe until the
	// clock advances (inserts at now always go to the ring, so the flag
	// stays valid while now stands still).
	nowClean bool

	// Tier 2: far-future monomorphic 4-ary min-heap.
	far []*event

	// stepped counts events executed by this engine; the delta since
	// flushedAt is folded into the process-wide totalEvents counter when
	// Run/RunUntil return, so the hot loop stays free of atomic
	// operations.
	stepped   uint64
	flushedAt uint64

	// Scheduler placement counters (see SchedStats): how many insertions
	// hit each tier and the largest bucket ever observed.
	statRing      uint64
	statBucket    uint64
	statFar       uint64
	statMaxBucket int
}

// initialFarCap pre-sizes the far heap and free list growth: typical
// simulations keep hundreds of in-flight events, so starting at a real
// capacity avoids the early growth reallocations on every run.
const initialFarCap = 64

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{
		live: make(map[*Proc]struct{}),
		far:  make([]*event, 0, initialFarCap),
	}
}

// totalEvents accumulates executed-event counts across all engines in the
// process (parallel sweeps run many engines at once).
var totalEvents atomic.Uint64

// TotalEvents reports the number of events executed by all engines in this
// process whose Run/RunUntil has returned. It is safe for concurrent use
// and is intended for coarse events/sec throughput reporting.
func TotalEvents() uint64 { return totalEvents.Load() }

// SchedStats reports where scheduled events landed in the calendar queue:
// the same-instant ring, the near-window buckets, or the far heap
// (overflow beyond the bucket window), plus the largest single-bucket
// occupancy observed. Ratios between the tiers tell whether the window
// geometry matches the workload.
type SchedStats struct {
	Ring      uint64 // insertions dispatched through the same-instant ring
	Bucket    uint64 // insertions into the near-window calendar buckets
	Far       uint64 // insertions that overflowed to the far heap
	MaxBucket int    // peak single-bucket occupancy
}

// Events reports the number of events this engine has executed so far.
func (e *Engine) Events() uint64 { return e.stepped }

// SchedStats reports this engine's scheduler-placement counters.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{Ring: e.statRing, Bucket: e.statBucket, Far: e.statFar, MaxBucket: e.statMaxBucket}
}

// endRun is the teardown at every run exit: fold the event count into
// the process-wide total and stop the idle proc shells' coroutines.
func (e *Engine) endRun() {
	if d := e.stepped - e.flushedAt; d != 0 {
		totalEvents.Add(d)
		e.flushedAt = e.stepped
	}
	e.releaseShells()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (non-cancelled) events. It is
// O(1): the engine maintains a live-event counter instead of scanning the
// queue.
func (e *Engine) Pending() int { return e.pending }

// alloc pops a recycled event struct (or allocates one) and enqueues it at
// time at. Scheduling in the past is an engine-usage bug and panics.
//
// Event structs come from a per-engine free list: once an event has fired
// (or been dropped as cancelled) it is recycled, so steady-state simulation
// does one event allocation per *concurrent* event rather than one per
// scheduled event. The seq field doubles as an identity generation —
// Timer.Stop compares it to detect recycled events.
//
//partib:hotpath
func (e *Engine) alloc(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now)) //partlint:allow hotpathalloc fatal engine-usage bug
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event) //partlint:allow hotpathalloc free-list miss; steady state recycles
	}
	ev.at, ev.seq, ev.cancelled = at, e.seq, false
	e.seq++
	e.pending++
	e.insert(ev)
	return ev
}

// insert places the event in the tier matching its distance from now.
//
//partib:hotpath
func (e *Engine) insert(ev *event) {
	ev.queued = true
	if ev.at == e.now {
		// Same-instant dispatch: events created at the current instant
		// are younger (larger seq) than anything already queued for this
		// instant, so a plain FIFO ring preserves (at, seq) order.
		ev.next = nil
		if e.ringT == nil {
			e.ringH = ev
		} else {
			e.ringT.next = ev
		}
		e.ringT = ev
		e.statRing++
		return
	}
	tk := tickOf(ev.at)
	if e.nbucket == 0 && len(e.far) == 0 && e.ringH == nil {
		// Queue is empty: re-anchor the window at the new event so it
		// lands in a bucket regardless of how far the old window drifted.
		e.anchor, e.cursor = tk, tk
	}
	switch {
	case tk < e.anchor:
		// The clock (via RunUntil's idle advance) can sit before the
		// window when the window was re-anchored at a far event; a new
		// near event must move the window back. Rare, never on the
		// callback hot path.
		e.reanchor(tk)
		e.bucketPut(tk, ev)
	case tk < e.anchor+numBuckets:
		e.bucketPut(tk, ev)
	default:
		e.farPush(ev)
		e.statFar++
	}
}

// bucketPut inserts the event into its tick's sorted bucket chain.
//
//partib:hotpath
func (e *Engine) bucketPut(tk int64, ev *event) {
	e.relink(tk, ev)
	i := int(tk & bucketMask)
	if n := int(e.blen[i]); n > e.statMaxBucket {
		e.statMaxBucket = n
	}
	if tk < e.cursor {
		// The drain cursor had advanced past this (then-empty) tick;
		// pull it back so the new event is seen.
		e.cursor = tk
	}
	e.statBucket++
}

// reanchor moves the bucket window to start at tick tk, re-placing any
// bucketed events (those beyond the new window spill to the far heap).
// Chains are relinked in place; nothing allocates.
func (e *Engine) reanchor(tk int64) {
	var chain *event
	if e.nbucket > 0 {
		for i := range e.buckets {
			for ev := e.buckets[i]; ev != nil; {
				nxt := ev.next
				ev.next = chain
				chain = ev
				ev = nxt
			}
			e.buckets[i], e.tails[i], e.blen[i] = nil, nil, 0
		}
		e.nbucket = 0
	}
	e.anchor, e.cursor = tk, tk
	for ev := chain; ev != nil; {
		nxt := ev.next
		if mtk := tickOf(ev.at); mtk < tk+numBuckets {
			e.relink(mtk, ev)
		} else {
			e.farPush(ev)
		}
		ev = nxt
	}
}

// relink inserts an already-queued event into its tick's bucket chain,
// keeping the chain sorted by (at, seq). The tail check makes the dominant
// monotone insertion orders O(1); out-of-order arrivals walk the (small)
// chain to their slot. It does not touch the placement stats (reanchor and
// refill migrations reuse it).
//
//partib:hotpath
func (e *Engine) relink(tk int64, ev *event) {
	i := int(tk & bucketMask)
	if t := e.tails[i]; t == nil {
		ev.next = nil
		e.buckets[i] = ev
		e.tails[i] = ev
	} else if !eventLess(ev, t) {
		ev.next = nil
		t.next = ev
		e.tails[i] = ev
	} else if h := e.buckets[i]; eventLess(ev, h) {
		ev.next = h
		e.buckets[i] = ev
	} else {
		cur := h
		for cur.next != nil && !eventLess(ev, cur.next) {
			cur = cur.next
		}
		ev.next = cur.next
		cur.next = ev
	}
	e.blen[i]++
	e.nbucket++
}

// farPush inserts the event into the 4-ary min-heap (hole-based sift-up,
// monomorphic comparisons — no container/heap interface dispatch).
//
//partib:hotpath
func (e *Engine) farPush(ev *event) {
	h := append(e.far, ev) //partlint:allow hotpathalloc amortized; far heap is pre-sized
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.far = h
}

// farPop removes and returns the heap minimum (hole-based 4-ary sift-down).
//
//partib:hotpath
func (e *Engine) farPop() *event {
	h := e.far
	n := len(h) - 1
	root := h[0]
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(h[j], h[m]) {
					m = j
				}
			}
			if !eventLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.far = h
	return root
}

// refill re-anchors the empty bucket window at the earliest far event and
// migrates every far event inside the new window into its bucket. Must only
// be called when ring and buckets are empty (the far heap is otherwise
// never consulted: every bucketed event precedes every far event).
//
//partib:hotpath
func (e *Engine) refill() {
	tk := tickOf(e.far[0].at)
	e.anchor, e.cursor = tk, tk
	end := tk + numBuckets
	for len(e.far) > 0 && tickOf(e.far[0].at) < end {
		ev := e.farPop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.relink(tickOf(ev.at), ev)
	}
}

// ringPop removes and returns the ring head.
//
//partib:hotpath
func (e *Engine) ringPop() *event {
	ev := e.ringH
	e.ringH = ev.next
	if e.ringH == nil {
		e.ringT = nil
	}
	ev.next = nil
	return ev
}

// next locates the earliest live event without removing it, lazily
// recycling cancelled events and refilling the window from the far heap
// as needed. The returned slot locates the event for take: -1 means the
// ring head, otherwise the event is the head of that bucket's sorted
// chain. Returns nil when no live events remain.
//
//partib:hotpath
func (e *Engine) next() (ev *event, slot int) {
	// Drop cancelled events from the ring head so the head is live.
	for e.ringH != nil && e.ringH.cancelled {
		e.recycle(e.ringPop())
	}
	rh := e.ringH
	if rh != nil && e.nowClean {
		// No bucketed event at exactly now (verified since the last
		// clock advance), so the ring head is the global minimum.
		return rh, -1
	}
	for {
		if e.nbucket > 0 {
			// Scan the window from the drain cursor. With a live ring
			// head (at == now) only a bucketed event at exactly now can
			// precede it, so the scan is bounded to now's tick.
			limit := e.anchor + numBuckets
			if rh != nil {
				if lim := tickOf(e.now) + 1; lim < limit {
					limit = lim
				}
			}
			for e.cursor < limit {
				i := int(e.cursor & bucketMask)
				// Drop cancelled chain heads in passing (lazy cancel);
				// interior cancelled events surface here as earlier
				// entries pop.
				h := e.buckets[i]
				for h != nil && h.cancelled {
					e.buckets[i] = h.next
					if h.next == nil {
						e.tails[i] = nil
					}
					e.blen[i]--
					e.nbucket--
					e.recycle(h)
					h = e.buckets[i]
				}
				if h != nil {
					if rh != nil && eventLess(rh, h) {
						e.nowClean = true
						return rh, -1
					}
					return h, i
				}
				e.cursor++
			}
		}
		if rh != nil {
			// Nothing at now in the buckets; remember that until the
			// clock moves (new at-now events always go to the ring).
			e.nowClean = true
			return rh, -1
		}
		if e.nbucket == 0 && len(e.far) == 0 {
			return nil, 0
		}
		if len(e.far) == 0 {
			// nbucket > 0 yet the window scan found nothing: impossible
			// by the window invariant (every bucketed event's tick lies
			// in [anchor, anchor+numBuckets) at or after the cursor).
			panic("sim: calendar queue lost bucketed events")
		}
		e.refill()
	}
}

// take removes the event located by next (always a chain head) from its
// tier.
//
//partib:hotpath
func (e *Engine) take(ev *event, slot int) {
	if slot < 0 {
		e.ringPop()
		return
	}
	e.buckets[slot] = ev.next
	if ev.next == nil {
		e.tails[slot] = nil
	}
	ev.next = nil
	e.blen[slot]--
	e.nbucket--
}

// fire advances the clock to the event and runs its callback.
//
//partib:hotpath
func (e *Engine) fireEvent(ev *event) {
	if ev.at != e.now {
		e.now = ev.at
		e.nowClean = false
	}
	e.pending--
	fn, fire, arg := ev.fn, ev.fire, ev.arg
	e.recycle(ev)
	if fire != nil {
		fire(e.now, arg)
	} else {
		fn()
	}
	e.stepped++
}

// schedule enqueues the closure fn to run at time at (the cold-path API).
func (e *Engine) schedule(at Time, fn func()) *event {
	ev := e.alloc(at)
	ev.fn = fn
	return ev
}

// scheduleCall enqueues the typed callback fire(now, arg) to run at time
// at. Because fire is a shared top-level function and arg a pre-bound
// pointer, steady-state scheduling through this path allocates nothing.
//
//partib:hotpath
func (e *Engine) scheduleCall(at Time, fire func(Time, any), arg any) *event {
	ev := e.alloc(at)
	ev.fire, ev.arg = fire, arg
	return ev
}

// Post schedules the typed callback fire(now, arg) at time at on engine
// dst. On the same engine — or in a serial simulation — it is exactly
// AtCall. Across shards of a ShardSet the event goes to the pair's SPSC
// mailbox and is scheduled on dst at the next window boundary; at must
// then be at least one lookahead past the posting event (the shard set
// asserts at ≥ window end and panics otherwise — a violation means the
// lookahead bound is wrong and conservative execution is unsound).
//
//partib:hotpath
func (e *Engine) Post(dst *Engine, at Time, fire func(Time, any), arg any) {
	if dst == e || e.shard == nil || dst.shard != e.shard {
		// Same engine, serial simulation, or an engine outside the set
		// (foreign engines only appear in single-threaded tests).
		dst.scheduleCall(at, fire, arg)
		return
	}
	e.shard.post(e.shardID, dst.shardID, at, fire, arg)
}

// runWindow executes events with timestamps strictly below the engine's
// winEnd bound, leaving the clock at the last fired event (not forced to
// the bound: a shard with no event this window must keep now ≤ its next
// event so nothing schedules into the past). It is the per-shard body of
// one ShardSet hop and runs on whichever worker claimed the shard —
// exclusively, so no engine state needs synchronization. winEnd is a
// field rather than a parameter because the shard runtime's dynamic
// self-cap (ShardSet.post) may pull the bound earlier mid-window when
// this engine's own events emit cross-shard posts.
//
// The return value is the timestamp of the earliest still-pending event
// (false when the queue is empty): the calendar queue has already located
// it to decide the window is over, so the shard barrier gets every
// engine's next-event time for free instead of re-scanning the queue.
//
//partib:hotpath
func (e *Engine) runWindow() (Time, bool) {
	for e.err == nil {
		ev, slot := e.next()
		if ev == nil {
			return 0, false
		}
		if ev.at >= e.winEnd {
			return ev.at, true
		}
		e.take(ev, slot)
		e.fireEvent(ev)
	}
	return 0, false
}

// nextAt reports the timestamp of the earliest live event without
// dispatching it. The shard runtime uses it when (re)building window
// bounds outside the runWindow fast path.
func (e *Engine) nextAt() (Time, bool) {
	ev, _ := e.next()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// recycle returns a popped event to the free list. Callback and argument
// references are dropped so captured state can be collected.
//
//partib:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.fire, ev.arg, ev.next = nil, nil, nil, nil
	ev.queued = false
	e.free = append(e.free, ev) //partlint:allow hotpathalloc amortized free-list growth
}

// At schedules fn to run at the absolute virtual time at.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), fn)
}

// AtCall schedules the typed callback fire(now, arg) at the absolute
// virtual time at. It is the allocation-free variant of At: fire should be
// a top-level function and arg the pre-bound receiver (a pointer, so the
// any-boxing does not allocate), letting hot paths schedule without
// constructing a closure per event.
func (e *Engine) AtCall(at Time, fire func(Time, any), arg any) {
	e.scheduleCall(at, fire, arg)
}

// AfterCall schedules fire(now, arg) to run d from now, the
// allocation-free variant of After. Negative d is treated as zero.
func (e *Engine) AfterCall(d time.Duration, fire func(Time, any), arg any) {
	if d < 0 {
		d = 0
	}
	e.scheduleCall(e.now.Add(d), fire, arg)
}

// Timer is a cancellable scheduled callback, analogous to time.Timer.
type Timer struct {
	e   *Engine
	ev  *event
	seq uint64 // identity of ev at creation; stale once ev is recycled
	at  Time
}

// AfterFunc schedules fn to run d from now and returns a Timer that can
// cancel it.
func (e *Engine) AfterFunc(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	ev := e.schedule(e.now.Add(d), fn)
	return &Timer{e: e, ev: ev, seq: ev.seq, at: ev.at}
}

// Stop cancels the timer. It reports whether the callback was prevented
// from running (false if it already ran or was already stopped). Stop is
// O(1) in every tier: the event is only marked and the queue skips and
// recycles it when a scan next encounters it (lazy cancellation).
//
// The seq guard below also protects sharded runs: once the timer's event
// has fired and been recycled, the very next mailbox drain may re-arm the
// same event struct with a cross-shard post migrated from another shard
// (ShardSet.drain schedules through the same free list). The (ev, seq)
// pair identifies the original occupant, so a stale Stop is a no-op for
// the migrated event rather than a silent cancellation of someone else's
// timeline.
func (t *Timer) Stop() bool {
	return t.ev != nil && t.e.cancel(t.ev, t.seq)
}

// cancel lazily cancels ev if it is still the queued event scheduled with
// seq. ev is recycled after firing; a seq mismatch means the struct now
// belongs to a different, later event that must not be cancelled.
func (e *Engine) cancel(ev *event, seq uint64) bool {
	if ev.seq != seq || ev.cancelled || !ev.queued {
		return false
	}
	ev.cancelled = true
	e.pending--
	return true
}

// When returns the virtual time at which the timer fires.
func (t *Timer) When() Time { return t.at }

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. Exited procs'
// shells keep their coroutines until a Run or RunUntil returns, so an
// engine driven by Step alone should end with one of those.
//
//partib:hotpath
func (e *Engine) Step() bool {
	ev, slot := e.next()
	if ev == nil {
		return false
	}
	e.take(ev, slot)
	e.fireEvent(ev)
	return true
}

// Run executes events until the queue drains or a proc fails. It returns
// the first proc error (a propagated panic), a DeadlockError if non-daemon
// procs remain parked with nothing to wake them, or nil.
func (e *Engine) Run() error {
	defer e.endRun()
	for e.err == nil && e.Step() {
	}
	if e.err != nil {
		return e.err
	}
	return e.checkDeadlock()
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// It returns the same errors as Run, except that parked procs are not a
// deadlock if events remain beyond t.
func (e *Engine) RunUntil(t Time) error {
	defer e.endRun()
	for e.err == nil {
		ev, slot := e.next()
		if ev == nil || ev.at > t {
			break
		}
		e.take(ev, slot)
		e.fireEvent(ev)
	}
	if e.err != nil {
		return e.err
	}
	if e.now < t {
		e.now = t
		e.nowClean = false
	}
	return nil
}

// stuckProcs lists parked non-daemon procs (name and park reason),
// unsorted; callers sort after aggregating across shards.
func (e *Engine) stuckProcs() []string {
	var stuck []string
	for p := range e.live {
		if p.daemon || p.done {
			continue
		}
		stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.parkReason))
	}
	return stuck
}

// checkDeadlock reports parked non-daemon procs when no events remain.
func (e *Engine) checkDeadlock() error {
	stuck := e.stuckProcs()
	if len(stuck) == 0 {
		return nil
	}
	sort.Strings(stuck)
	return &DeadlockError{Procs: stuck}
}

// fail records a proc failure; Run stops at the next step boundary.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Err returns the recorded proc failure, if any.
func (e *Engine) Err() error { return e.err }
