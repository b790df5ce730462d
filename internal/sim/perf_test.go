package sim

import (
	"testing"
	"time"
)

// TestEventFreeListRecycle verifies that fired events return to the free
// list and are reused by later schedules instead of allocating.
func TestEventFreeListRecycle(t *testing.T) {
	e := NewEngine()
	const rounds = 100
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < rounds {
			e.After(time.Microsecond, tick)
		}
	}
	e.After(time.Microsecond, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != rounds {
		t.Fatalf("ran %d events, want %d", n, rounds)
	}
	// Only one event is ever in flight, so the free list should hold
	// exactly the one recycled struct.
	if len(e.free) != 1 {
		t.Errorf("free list holds %d events, want 1", len(e.free))
	}
	if got := e.Events(); got != rounds {
		t.Errorf("Events() = %d, want %d", got, rounds)
	}
}

// TestTimerStopAfterRecycle: once a timer has fired, its event struct may
// be recycled into a new event; Stop on the stale timer must not cancel
// the new event.
func TestTimerStopAfterRecycle(t *testing.T) {
	e := NewEngine()
	fired1, fired2 := false, false
	tm1 := e.AfterFunc(time.Microsecond, func() { fired1 = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired1 {
		t.Fatal("timer 1 did not fire")
	}
	// Schedule a second timer; with the free list it reuses tm1's event.
	tm2 := e.AfterFunc(time.Microsecond, func() { fired2 = true })
	if tm1.ev != tm2.ev {
		t.Log("free list did not reuse the event struct; identity check still applies")
	}
	if tm1.Stop() {
		t.Error("Stop on a fired timer reported true")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired2 {
		t.Error("stale Stop cancelled an unrelated recycled event")
	}
	// A live timer still stops normally.
	tm3 := e.AfterFunc(time.Microsecond, func() { t.Error("stopped timer fired") })
	if !tm3.Stop() {
		t.Error("Stop on a pending timer reported false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAtCallTypedEvents covers the typed-event fast path: AtCall/AfterCall
// fire the shared top-level callback with the event's timestamp and the
// pre-bound argument, interleaved FIFO with closure events at equal times.
func TestAtCallTypedEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	var firedAt Time
	fire := func(at Time, arg any) {
		firedAt = at
		order = append(order, arg.(string))
	}
	e.AtCall(Time(100), fire, "typed-100")
	e.At(Time(100), func() { order = append(order, "closure-100") })
	e.AtCall(Time(100), fire, "typed-100b")
	e.AfterCall(-time.Second, fire, "typed-now") // negative d clamps to now
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"typed-now", "typed-100", "closure-100", "typed-100b"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v (same-time events must run in FIFO seq order)", order, want)
		}
	}
	if firedAt != Time(100) {
		t.Errorf("last typed event saw now=%v, want 100", firedAt)
	}
}

// TestPendingCounter checks the O(1) live-event counter against schedule,
// cancel, double-cancel, and drain — including that a cancelled event's
// later heap pop does not decrement a second time.
func TestPendingCounter(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatalf("new engine Pending() = %d, want 0", e.Pending())
	}
	for i := 0; i < 3; i++ {
		e.After(time.Microsecond, func() {})
	}
	e.AtCall(Time(5), func(Time, any) {}, nil)
	tm := e.AfterFunc(time.Microsecond, func() {})
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d after scheduling 5, want 5", e.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending() = %d after cancel, want 4", e.Pending())
	}
	if tm.Stop() {
		t.Error("second Stop reported true")
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending() = %d after double cancel, want 4 (double decrement)", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}
}

// TestTimerStopRecycledTypedEvent: a fired timer's event struct is recycled
// into a typed (AtCall) event, which has no Timer of its own. The stale
// timer's Stop must see the seq mismatch, refuse to cancel, and leave the
// live-event counter alone.
func TestTimerStopRecycledTypedEvent(t *testing.T) {
	e := NewEngine()
	tm := e.AfterFunc(time.Microsecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	e.AtCall(e.Now().Add(1), func(_ Time, arg any) { *(arg.(*bool)) = true }, &fired)
	if tm.ev.fire == nil {
		t.Log("free list did not hand the timer's struct to the typed event; seq check still applies")
	}
	if tm.Stop() {
		t.Error("Stop on a fired timer reported true")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after stale Stop, want 1", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("stale Stop cancelled the recycled typed event")
	}
}

// TestAtCallSteadyStateZeroAllocs is the allocation regression gate on the
// typed-event path: with a warm free list, scheduling and firing a
// pre-bound event allocates nothing, whether it lands in the calendar
// window or past it, on the far heap that refill migrates back.
func TestAtCallSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	fire := func(_ Time, arg any) { *(arg.(*int))++ }
	round := func() {
		e.AtCall(e.Now().Add(1), fire, &n)
		e.AtCall(e.Now().Add(4*time.Millisecond), fire, &n)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the free list
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("typed event schedule+fire allocates %.1f/op, want 0", allocs)
	}
}

// TestAtSteadyStateZeroAllocs: a closure scheduled with At rides the typed
// path as fireFunc's argument, and boxing the func value into it allocates
// nothing — only building a fresh closure would.
func TestAtSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	round := func() {
		e.At(e.Now().Add(1), fn)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the free list
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("closure event schedule+fire allocates %.1f/op, want 0", allocs)
	}
	if n != 102 {
		t.Fatalf("closure fired %d times, want 102", n)
	}
}

// TestSpawnSteadyStateZeroAllocs is the allocation gate on proc spawning:
// inside one Run a parent proc fork-joins 32 thread procs per round
// through a Group, and once the shells are warm a round allocates nothing
// — no shell, no goroutine, no wait record.
func TestSpawnSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	g := NewGroup(e)
	thread := func(p *Proc) {
		p.Sleep(time.Microsecond)
		g.Done()
	}
	allocs := -1.0
	e.Spawn("parent", func(p *Proc) {
		round := func() {
			for i := 0; i < 32; i++ {
				g.Add(1)
				e.Spawn("thread", thread)
			}
			g.Wait(p)
		}
		round() // warm the shells, the event free list and the wait queue
		allocs = testing.AllocsPerRun(100, round)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("fork-join of 32 procs allocates %.1f/round, want 0", allocs)
	}
}

// BenchmarkEngineEventChurn measures the per-event cost of the engine's
// schedule/fire cycle with a steady population of in-flight events — the
// hot path of every simulation. With the free list, allocs/op settles at
// zero once the pool is warm.
func BenchmarkEngineEventChurn(b *testing.B) {
	e := NewEngine()
	const inflight = 64
	var tick func()
	remaining := b.N
	tick = func() {
		if remaining > 0 {
			remaining--
			e.After(time.Microsecond, tick)
		}
	}
	for i := 0; i < inflight; i++ {
		e.After(time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcParkResume measures a full proc park/resume round trip: one
// Sleep event and two coroutine switches. Two sleepers interleave, so each
// wake-up has the other's ahead of it and every Sleep parks.
func BenchmarkProcParkResume(b *testing.B) {
	e := NewEngine()
	e.Spawn("even", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			p.Sleep(2 * time.Microsecond)
		}
	})
	e.Spawn("odd", func(p *Proc) {
		p.Sleep(time.Microsecond)
		for i := 1; i < b.N; i += 2 {
			p.Sleep(2 * time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if n := e.SchedStats().InPlace; n > 1 { // only odd's offset Sleep
		b.Fatalf("%d Sleeps ran in place, want every one to park", n)
	}
}

// BenchmarkProcSleepInPlace measures a Sleep whose wake-up is the next
// event: a lone sleeper continues in place, with no coroutine switch.
func BenchmarkProcSleepInPlace(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if n := e.SchedStats().InPlace; n != uint64(b.N) {
		b.Fatalf("%d of %d Sleeps ran in place", n, b.N)
	}
}

// BenchmarkResourceHandoff measures one contended critical section: two
// procs each alternate a 2 µs Use of one server with 1 µs of think time,
// so every Use queues behind the other proc's hold and is granted by its
// Release while the releaser's think-time wake-up is still pending — the
// case where a waiter resumed at its grant would park again in its hold.
// One op is one Use and its think time.
func BenchmarkResourceHandoff(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, 1)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			for k := i; k < b.N; k += 2 {
				r.Use(p, 2*time.Microsecond)
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
