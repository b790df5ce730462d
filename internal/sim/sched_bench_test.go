package sim

import (
	"math/rand"
	"testing"
	"time"
)

// Calendar-queue microbenchmarks: schedule-and-fire cycles against each
// tier of the scheduler, run with -benchmem so per-op allocations gate
// regressions (steady state must stay at ~0 allocs/op — the event free
// list absorbs every schedule).

func benchNop(Time, any) {}

func benchTimerNop() {}

// benchScheduleFire keeps a fixed backlog of in-flight events and, per
// iteration, schedules one event at now+delta (cycling through deltas)
// and fires the oldest.
func benchScheduleFire(b *testing.B, deltas []time.Duration) {
	e := NewEngine()
	const backlog = 64
	for i := 0; i < backlog; i++ {
		e.AtCall(e.Now().Add(deltas[i%len(deltas)]), benchNop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtCall(e.Now().Add(deltas[i%len(deltas)]), benchNop, nil)
		e.Step()
	}
	b.StopTimer()
	for e.Step() {
	}
}

// BenchmarkScheduleFireNear exercises the bucket tier: every event lands
// a few ticks ahead of the clock, inside the calendar window.
func BenchmarkScheduleFireNear(b *testing.B) {
	benchScheduleFire(b, []time.Duration{2 * time.Microsecond})
}

// BenchmarkScheduleFireFar exercises the far-heap tier: every event lands
// well past the calendar window (δ-timer / compute-sleep territory), so
// each one is pushed onto the 4-ary heap and later migrated into the
// window by refill.
func BenchmarkScheduleFireFar(b *testing.B) {
	benchScheduleFire(b, []time.Duration{4 * time.Millisecond})
}

// BenchmarkScheduleFireMixed interleaves all three tiers: same-instant
// ring hits, in-window bucket inserts, and far-heap overflows.
func BenchmarkScheduleFireMixed(b *testing.B) {
	benchScheduleFire(b, []time.Duration{
		0,
		2 * time.Microsecond,
		30 * time.Microsecond,
		4 * time.Millisecond,
	})
}

// denseN is the number of events a dense-tick round puts into one tick.
const denseN = 256

// denseTick drives rounds of the dense-tick shape: denseN events scheduled
// into one calendar tick in a seeded random order, each firing one child
// 0–2 µs later, as many procs' compute sleepers waking together do.
type denseTick struct {
	e    *Engine
	offs [denseN]Time          // parents' offsets within the tick, in schedule order
	kids [denseN]time.Duration // children's delays, in parent fire order
	k    int                   // parents fired so far in this round
}

func newDenseTick() *denseTick {
	d := &denseTick{e: NewEngine()}
	rng := rand.New(rand.NewSource(1))
	for i := range d.offs {
		d.offs[i] = Time(rng.Intn(1 << bucketShift))
		d.kids[i] = time.Duration(rng.Intn(2000))
	}
	return d
}

func fireDenseParent(_ Time, a any) {
	d := a.(*denseTick)
	d.e.AfterCall(d.kids[d.k], benchNop, nil)
	d.k++
}

// round schedules the parents into the tick after the clock's and runs
// them and their children: 2*denseN events.
func (d *denseTick) round() {
	d.k = 0
	base := Time((tickOf(d.e.Now()) + 1) << bucketShift)
	for _, off := range d.offs {
		d.e.AtCall(base+off, fireDenseParent, d)
	}
	for d.e.Step() {
	}
}

// BenchmarkScheduleFireDense measures the per-event cost of dense ticks:
// each round fills one tick with 256 out-of-order events, and each of
// them schedules a child into the tick being drained or the next. One op
// is one event scheduled and fired.
func BenchmarkScheduleFireDense(b *testing.B) {
	d := newDenseTick()
	d.round() // warm the free list
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += 2 * denseN {
		d.round()
	}
}

// TestDenseTickSteadyStateZeroAllocs is the allocation gate on dense
// ticks: once the free list is warm, a round of BenchmarkScheduleFireDense
// allocates nothing, split and sub-chain inserts included.
func TestDenseTickSteadyStateZeroAllocs(t *testing.T) {
	d := newDenseTick()
	d.round() // warm the free list
	if allocs := testing.AllocsPerRun(100, d.round); allocs != 0 {
		t.Errorf("dense-tick round allocates %.1f/op, want 0", allocs)
	}
	if s := d.e.SchedStats(); s.MaxBucket < denseN {
		t.Errorf("MaxBucket = %d, want >= %d: the parents did not share a tick", s.MaxBucket, denseN)
	}
}

// BenchmarkTimerStopStart measures the AfterFunc+Stop cycle. Stop is lazy
// O(1) (mark and skip), so the cost must not scale with the number of
// pending events; the periodic RunUntil sweeps the cancelled husks so the
// queue cannot grow without bound during the measurement.
func BenchmarkTimerStopStart(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.AfterFunc(2*time.Microsecond, benchTimerNop)
		if !tm.Stop() {
			b.Fatal("Stop on a pending timer returned false")
		}
		if i%1024 == 1023 {
			if err := e.RunUntil(e.Now().Add(4 * time.Microsecond)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
