package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// Targeted structural tests for the calendar queue: each exercises one
// tier or window transition directly (the randomized differential test in
// sched_diff_test.go covers their interactions).

// TestSameInstantRingFIFO checks that events scheduled for Now() from
// inside a callback run in FIFO order at the same instant, after events
// that were already pending at that time.
func TestSameInstantRingFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(time.Microsecond, func() {
		order = append(order, 1)
		e.After(0, func() { order = append(order, 3) })
		e.After(0, func() {
			order = append(order, 4)
			e.After(0, func() { order = append(order, 5) })
		})
	})
	e.After(time.Microsecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("fire order %v, want 1..5", order)
		}
	}
	if s := e.SchedStats(); s.Ring != 3 {
		t.Fatalf("ring insertions = %d, want 3 (stats %+v)", s.Ring, s)
	}
}

// TestFarHeapOrdering schedules events far beyond the calendar window in
// random order and checks they fire sorted, with the far tier actually
// used and refill migrating them back into the window.
func TestFarHeapOrdering(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	const n = 500
	ats := make([]time.Duration, n)
	for i := range ats {
		// 1ms..100ms: far past the ~524µs window.
		ats[i] = time.Millisecond + time.Duration(rng.Intn(99_000_000))
	}
	var fired []Time
	for _, d := range ats {
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	if s := e.SchedStats(); s.Far == 0 {
		t.Fatalf("no far-heap insertions recorded (stats %+v)", s)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire %d at %v before fire %d at %v", i, fired[i], i-1, fired[i-1])
		}
	}
}

// TestReanchorWindowDown forces the window-down path: the first insert
// anchors the window high, then a second insert lands on an earlier tick
// and must re-anchor without losing or reordering anything.
func TestReanchorWindowDown(t *testing.T) {
	e := NewEngine()
	var order []int
	// First insert into an empty engine anchors the window at 10ms.
	e.After(10*time.Millisecond, func() { order = append(order, 2) })
	// 1ms is an earlier tick than the anchor: window must move down.
	e.After(time.Millisecond, func() { order = append(order, 1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fire order %v, want [1 2]", order)
	}
}

// TestSameTimeFIFOAcrossTiers schedules many events for one single far
// instant from different moments (so they traverse far heap and buckets)
// and checks the seq FIFO tie-break holds after migration.
func TestSameTimeFIFOAcrossTiers(t *testing.T) {
	e := NewEngine()
	target := Time(0).Add(5 * time.Millisecond)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(target, func() { order = append(order, i) })
	}
	// Let the clock crawl so refill happens with the target still ahead.
	e.At(Time(0).Add(time.Millisecond), func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("fired %d, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time FIFO broken: order[%d] = %d", i, v)
		}
	}
}

// TestRunUntilIdleThenSchedule advances the clock past every event with
// RunUntil, then schedules again: inserts behind the stale window anchor
// must still fire, in order.
func TestRunUntilIdleThenSchedule(t *testing.T) {
	e := NewEngine()
	e.After(2*time.Millisecond, func() {})
	if err := e.RunUntil(Time(0).Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(0).Add(50*time.Millisecond) {
		t.Fatalf("Now() = %v after idle advance", e.Now())
	}
	var order []int
	e.After(3*time.Microsecond, func() { order = append(order, 1) })
	e.After(time.Microsecond, func() { order = append(order, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fire order %v, want [0 1]", order)
	}
}

// TestSchedStatsTiers checks the per-engine placement counters attribute
// insertions to the tier that actually held them.
func TestSchedStatsTiers(t *testing.T) {
	e := NewEngine()
	done := false
	e.After(time.Microsecond, func() {
		e.After(0, func() {})                                 // ring
		e.After(5*time.Microsecond, func() {})                // bucket
		e.After(100*time.Millisecond, func() { done = true }) // far
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("far event did not fire")
	}
	s := e.SchedStats()
	if s.Ring != 1 || s.Far != 1 || s.Bucket < 2 {
		t.Fatalf("stats %+v, want 1 ring, >=2 bucket, 1 far", s)
	}
	if s.MaxBucket < 1 {
		t.Fatalf("MaxBucket = %d, want >= 1", s.MaxBucket)
	}
}

// TestSchedStatsMaxBucketCountsMigrated: refill migrates far events into
// the buckets without an insert, yet the tick they fill still counts
// toward MaxBucket. One event at 1 µs anchors the window; 100 events at
// 1 ms+i ns lie beyond it and share one tick once refill brings them in.
func TestSchedStatsMaxBucketCountsMigrated(t *testing.T) {
	e := NewEngine()
	e.After(time.Microsecond, func() {})
	for i := 0; i < 100; i++ {
		e.At(Time(time.Millisecond)+Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.SchedStats(); s.Far != 100 || s.MaxBucket != 100 {
		t.Fatalf("stats %+v, want Far = 100 and MaxBucket = 100", s)
	}
}

// TestSplitTickSpillAndReanchor walks a split tick through both ways
// back onto its bucket, each after RunUntil leaves the clock short of it:
// an insert below the window anchor (spill, then reanchor) and an insert
// on an earlier tick inside the window (spill, then cursor pull-back).
// Fire order must stay (at, seq) throughout.
func TestSplitTickSpillAndReanchor(t *testing.T) {
	e := NewEngine()
	var got []string
	at := func(when Time, name string) {
		e.At(when, func() { got = append(got, name) })
	}
	split := func(until Time) {
		t.Helper()
		if err := e.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		if e.subOcc == 0 {
			t.Fatalf("RunUntil(%d) left no tick split", until)
		}
	}
	// The first insert anchors the window at the 10 ms tick.
	at(10_000_100, "f")
	at(10_000_040, "b")
	at(10_000_050, "e")
	at(10_000_045, "d")
	split(9_000_000)
	at(9_500_000, "anchor") // below the anchor: spill, reanchor
	at(10_000_041, "c")
	split(9_990_000)
	at(9_995_000, "pull") // behind the split tick: spill, pull back
	at(10_000_040, "b2")  // same instant as b, larger seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"anchor", "pull", "b", "b2", "c", "d", "e", "f"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

// TestEngineFitsSizeClass pins the Engine inside Go's 5376-byte size
// class: 5368 bytes plus the 8-byte allocation header. One more word
// would put every engine in the next class, 768 bytes larger.
func TestEngineFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n > 5368 {
		t.Fatalf("unsafe.Sizeof(Engine{}) = %d, want <= 5368", n)
	}
}

// TestProcShellRecycle checks the shell lifecycle: within one Run an
// exited proc's shell — struct and coroutine — is reused by the next Spawn
// without leaking state between bodies, and Run's teardown leaves the free
// list empty.
func TestProcShellRecycle(t *testing.T) {
	e := NewEngine()
	e.Spawn("parent", func(p *Proc) {
		var first *Proc
		first = e.Spawn("one", func(c *Proc) {
			if c != first {
				t.Errorf("body got %p, Spawn returned %p", c, first)
			}
			c.Sleep(time.Microsecond)
		})
		p.Sleep(2 * time.Microsecond)
		if len(e.procFree) != 1 {
			t.Errorf("procFree holds %d shells after exit, want 1", len(e.procFree))
			return
		}
		goroutines := runtime.NumGoroutine()
		second := e.Spawn("two", func(c *Proc) {
			if c.Name() != "two" {
				t.Errorf("recycled proc kept stale name %q", c.Name())
			}
			if c.Done() {
				t.Error("recycled proc started with done=true")
			}
			// Only growth counts: a goroutine an earlier test ended may
			// still be exiting.
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("recycled shell raised the goroutine count %d -> %d, want its own coroutine reused", goroutines, n)
			}
			c.Sleep(time.Microsecond)
		})
		if second != first {
			t.Errorf("Spawn did not reuse the recycled shell (%p vs %p)", second, first)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.procFree) != 0 {
		t.Fatalf("procFree holds %d shells after Run returned, want 0", len(e.procFree))
	}
}

// TestProcShellsReleasedAfterRun pins the teardown at Run's exit: 200
// engines in sequence, each spawning and finishing 64 procs, leave no
// coroutine behind. Without it every finished engine would keep one
// suspended coroutine per shell for the GC to scan. As in
// TestProcShellRecycle, only growth of the goroutine count counts.
func TestProcShellsReleasedAfterRun(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := NewEngine()
		for j := 0; j < 64; j++ {
			e.Spawn("w", func(p *Proc) { p.Sleep(time.Duration(j) * time.Microsecond) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after 200 finished engines, want at most the starting %d", n, start)
	}
}
