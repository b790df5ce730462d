package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file differentially tests the calendar-queue scheduler against a
// straightforward container/heap reference model: both sides execute the
// same randomized sequence of schedule / cancel / reschedule / advance
// operations, and after every operation the fire log (event id and
// timestamp, in order), Pending(), and Now() must match exactly. The
// reference model is the pre-calendar-queue design, so any divergence in
// ordering (FIFO seq tie-break across the ring, buckets, split-tick
// sub-chains and far heap), lazy cancellation accounting, or clock
// advancement is caught here.

// refItem is one scheduled event in the reference model.
type refItem struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
	fired     bool
}

// refHeap orders items by (at, seq) — the engine's documented contract.
type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)    { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any      { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h refHeap) Peek() *refItem { return h[0] }
func (h refHeap) String() string { return fmt.Sprintf("%d items", len(h)) }

// firedRec is one fire-log entry: which event ran and at what time.
type firedRec struct {
	id int
	at Time
}

// diffChildren is the shared, deterministic rule for events that schedule
// more events from inside their own callback (exercising the same-instant
// ring and in-window inserts while the queue is mid-drain). Both sides
// consult it in fire order with their own equal budgets, so their
// decisions stay identical as long as fire order is identical — which is
// exactly what the test asserts.
func diffChildren(id int, budget *int) []time.Duration {
	if *budget <= 0 {
		return nil
	}
	switch id % 7 {
	case 0:
		*budget--
		return []time.Duration{0} // same instant: ring tier
	case 2:
		*budget--
		return []time.Duration{1500 * time.Nanosecond} // near: bucket tier
	case 4:
		*budget--
		return []time.Duration{0, 900 * time.Microsecond} // ring + far heap
	case 5, 6:
		// now+[0, 2 µs): the split tick being drained or the next one,
		// at a spread of offsets fixed by the id.
		*budget--
		return []time.Duration{time.Duration(uint32(id) * 2654435761 % 2000)}
	}
	return nil
}

// refModel is the reference scheduler.
type refModel struct {
	h       refHeap
	items   map[int]*refItem
	now     Time
	seq     uint64
	pending int

	log    []firedRec
	nextID *int
	budget int
}

func (m *refModel) schedule(id int, at Time) {
	it := &refItem{at: at, seq: m.seq, id: id}
	m.seq++
	m.items[id] = it
	heap.Push(&m.h, it)
	m.pending++
}

func (m *refModel) cancel(id int) bool {
	it, ok := m.items[id]
	if !ok || it.cancelled || it.fired {
		return false
	}
	it.cancelled = true
	m.pending--
	return true
}

// nextAt reports the time of the earliest live event, if any.
func (m *refModel) nextAt() (Time, bool) {
	for len(m.h) > 0 {
		if it := m.h.Peek(); !it.cancelled {
			return it.at, true
		}
		heap.Pop(&m.h)
	}
	return 0, false
}

// step fires the earliest live event, if any.
func (m *refModel) step() bool {
	for len(m.h) > 0 {
		it := heap.Pop(&m.h).(*refItem)
		if it.cancelled {
			continue
		}
		m.fire(it)
		return true
	}
	return false
}

// advanceTo fires every live event with at <= t, then moves the clock.
func (m *refModel) advanceTo(t Time) {
	for len(m.h) > 0 {
		it := m.h.Peek()
		if it.cancelled {
			heap.Pop(&m.h)
			continue
		}
		if it.at > t {
			break
		}
		heap.Pop(&m.h)
		m.fire(it)
	}
	if m.now < t {
		m.now = t
	}
}

func (m *refModel) fire(it *refItem) {
	if it.at > m.now {
		m.now = it.at
	}
	it.fired = true
	m.pending--
	m.log = append(m.log, firedRec{id: it.id, at: m.now})
	for _, d := range diffChildren(it.id, &m.budget) {
		cid := *m.nextID
		*m.nextID++
		m.schedule(cid, m.now.Add(d))
	}
}

// engSide drives the real engine with the same operations.
type engSide struct {
	e      *Engine
	timers map[int]*Timer
	log    []firedRec
	nextID *int
	budget int
}

func (s *engSide) schedule(id int, d time.Duration) {
	s.timers[id] = s.e.AfterFunc(d, func() { s.onFire(id) })
}

func (s *engSide) onFire(id int) {
	s.log = append(s.log, firedRec{id: id, at: s.e.Now()})
	for _, d := range diffChildren(id, &s.budget) {
		cid := *s.nextID
		*s.nextID++
		d := d
		cidCopy := cid
		s.timers[cid] = s.e.AfterFunc(d, func() { s.onFire(cidCopy) })
	}
}

// TestSchedulerDifferential runs randomized operation sequences against
// the calendar queue and the container/heap reference model and demands
// identical behavior after every operation.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runSchedulerDifferential(t, seed, 4000)
		})
	}
}

// FuzzSchedulerDifferential runs the differential over fuzzed seeds and
// operation counts; the corpus is TestSchedulerDifferential's eight runs.
// Run it with
//
//	go test -run '^$' -fuzz FuzzSchedulerDifferential -fuzztime 20s ./internal/sim/
func FuzzSchedulerDifferential(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(4000))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runSchedulerDifferential(t, seed, int(ops))
	})
}

func runSchedulerDifferential(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()

	engNext, refNext := 1_000_000, 1_000_000
	eng := &engSide{e: e, timers: make(map[int]*Timer), nextID: &engNext, budget: 400}
	ref := &refModel{items: make(map[int]*refItem), nextID: &refNext, budget: 400}

	var ids []int // all ids ever scheduled from the top level, for cancel targeting
	nextID := 0

	// delta draws a scheduling offset that exercises every tier: the
	// same-instant ring (0), in-window bucket ticks, the window edge,
	// and the far heap (>> window).
	delta := func() time.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Intn(2048)) // sub-tick
		case 2:
			return time.Duration(rng.Intn(500_000)) // in and around the window
		case 3:
			return time.Duration(rng.Intn(5_000_000)) // far heap
		case 4:
			return 524_288 // exactly the window span in ns
		default:
			return time.Duration(rng.Intn(20_000))
		}
	}

	checked := 0 // fire-log entries already compared
	check := func(op string) {
		t.Helper()
		if e.Pending() != ref.pending {
			t.Fatalf("%s: Pending() = %d, reference = %d", op, e.Pending(), ref.pending)
		}
		if e.Now() != ref.now {
			t.Fatalf("%s: Now() = %v, reference = %v", op, e.Now(), ref.now)
		}
		if len(eng.log) != len(ref.log) {
			t.Fatalf("%s: fired %d events, reference fired %d", op, len(eng.log), len(ref.log))
		}
		for i := checked; i < len(eng.log); i++ {
			if eng.log[i] != ref.log[i] {
				t.Fatalf("%s: fire log diverges at %d: engine %+v, reference %+v",
					op, i, eng.log[i], ref.log[i])
			}
		}
		checked = len(eng.log)
	}

	scheduleAt := func(d time.Duration) {
		id := nextID
		nextID++
		ids = append(ids, id)
		eng.schedule(id, d)
		ref.schedule(id, ref.now.Add(d))
	}
	scheduleOne := func() { scheduleAt(delta()) }

	// burst is the dense delta class: tens of events into one tick (the
	// current one, being drained, or one up to 7 ticks ahead) in random
	// order, half of them inside one 32 ns sub-tick.
	burst := func() {
		const tick = 1 << bucketShift
		start := (tickOf(ref.now) + int64(rng.Intn(8))) * tick
		sub := Time(start + int64(rng.Intn(tick/32))*32)
		for n := 10 + rng.Intn(40); n > 0; n-- {
			at := Time(start + int64(rng.Intn(tick)))
			if rng.Intn(2) == 0 {
				at = sub + Time(rng.Intn(32))
			}
			if at < ref.now {
				at = ref.now
			}
			scheduleAt(at.Sub(ref.now))
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 36: // schedule
			scheduleOne()
			check("schedule")
		case r < 40: // schedule a burst into one tick
			burst()
			check("burst")
		case r < 55: // cancel a random past-or-present id
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			got := eng.timers[id].Stop()
			want := ref.cancel(id)
			if got != want {
				t.Fatalf("cancel %d: engine Stop() = %v, reference = %v", id, got, want)
			}
			check("cancel")
		case r < 65: // reschedule: cancel then schedule fresh
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			got := eng.timers[id].Stop()
			want := ref.cancel(id)
			if got != want {
				t.Fatalf("reschedule %d: engine Stop() = %v, reference = %v", id, got, want)
			}
			scheduleOne()
			check("reschedule")
		case r < 77: // advance the clock, firing everything due
			tgt := e.Now().Add(delta())
			if err := e.RunUntil(tgt); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
			ref.advanceTo(tgt)
			check("advance")
		case r < 85: // stop the clock short of the next event, then insert before it
			next, ok := ref.nextAt()
			if !ok {
				continue
			}
			// Up to two ticks short: the next event's tick is left split
			// and the inserts below land behind it or inside it.
			tgt := next - 1 - Time(rng.Intn(2<<bucketShift))
			if tgt < ref.now {
				tgt = ref.now
			}
			if err := e.RunUntil(tgt); err != nil {
				t.Fatalf("RunUntil: %v", err)
			}
			ref.advanceTo(tgt)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				scheduleAt(time.Duration(rng.Int63n(int64(next-ref.now) + 1)))
			}
			check("short advance")
		default: // single step
			got := e.Step()
			want := ref.step()
			if got != want {
				t.Fatalf("step: engine fired=%v, reference fired=%v", got, want)
			}
			check("step")
		}
	}

	// Drain both completely: everything still scheduled must fire in the
	// same order.
	for e.Step() {
	}
	for ref.step() {
	}
	check("drain")
	if e.Pending() != 0 {
		t.Fatalf("after drain: Pending() = %d", e.Pending())
	}
}
