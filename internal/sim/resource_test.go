package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceSerializesBeyondCapacity(t *testing.T) {
	// 4 procs, 2 servers, 1ms work each: finish in two waves at 1ms, 2ms.
	e := NewEngine()
	r := NewResource(e, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			r.Use(p, time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{
		Time(time.Millisecond), Time(time.Millisecond),
		Time(2 * time.Millisecond), Time(2 * time.Millisecond),
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.Peak() != 2 {
		t.Fatalf("peak = %d, want 2", r.Peak())
	}
	if r.InUse() != 0 || r.Queued() != 0 {
		t.Fatalf("resource not drained: inUse=%d queued=%d", r.InUse(), r.Queued())
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceZeroServersPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-server resource did not panic")
		}
	}()
	NewResource(e, 0)
}

// TestOversubscriptionStretch: n procs each doing d of work on c cores
// finish no earlier than ceil(n/c)*d — the paper's 128-threads-on-40-cores
// scenario relies on this behaviour.
func TestOversubscriptionStretch(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%32) + 1
		c := int(cRaw%8) + 1
		e := NewEngine()
		r := NewResource(e, c)
		var last Time
		for i := 0; i < n; i++ {
			e.Spawn("w", func(p *Proc) {
				r.Use(p, time.Millisecond)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		waves := (n + c - 1) / c
		return last == Time(waves)*Time(time.Millisecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// handoffStep is one critical section of a proc in a seeded resource
// scenario.
type handoffStep struct {
	// gap is slept before the step; a negative gap skips the Sleep, so the
	// step starts at the instant the previous one ended.
	gap  time.Duration
	hold time.Duration // zero and negative holds included
	kind int
	// cbRelease releases the server from an event callback relDelay after
	// the hold instead of from the proc (Hold and Acquire steps only).
	cbRelease bool
	relDelay  time.Duration
}

const (
	stepUse     = iota // Use(p, hold)
	stepHold           // Hold(p, hold), then Release
	stepAcquire        // Acquire, Sleep(hold), Release: a plain Acquire waiter
)

// handoffScenario is a seeded mix of procs contending on one resource,
// plus event callbacks at random instants that interleave with them.
type handoffScenario struct {
	servers int
	procs   [][]handoffStep
	events  []Time
}

func newHandoffScenario(rng *rand.Rand, servers int) handoffScenario {
	gaps := []time.Duration{-1, -1, 0, 1, 5, 40, 200}
	holds := []time.Duration{-7, 0, 0, 3, 25, 60, 150}
	sc := handoffScenario{servers: servers, procs: make([][]handoffStep, 2+rng.Intn(6))}
	for i := range sc.procs {
		steps := make([]handoffStep, 3+rng.Intn(10))
		for k := range steps {
			st := handoffStep{
				gap:  gaps[rng.Intn(len(gaps))],
				hold: holds[rng.Intn(len(holds))],
				kind: rng.Intn(3),
			}
			if st.kind != stepUse && rng.Intn(4) == 0 {
				st.cbRelease = true
				st.relDelay = []time.Duration{0, 9}[rng.Intn(2)]
			}
			steps[k] = st
		}
		sc.procs[i] = steps
	}
	for n := rng.Intn(12); n > 0; n-- {
		sc.events = append(sc.events, Time(rng.Intn(1500)))
	}
	return sc
}

// handoffTrace is what a scenario run observes: each proc's wake instants
// (after every Acquire step's Acquire, and after every step's hold), the
// global order of those wakes and of the event callbacks, and the
// engine's executed-event count and final clock.
type handoffTrace struct {
	wakes     [][]Time
	order     []string
	events    uint64
	now       Time
	contended int
}

func fireRelease(_ Time, arg any) { arg.(*Resource).Release() }

// spawnHandoff spawns the scenario's procs and events on e. With ref set,
// every step is written out as Acquire, Sleep and Release; otherwise Use
// and Hold steps use those calls.
func spawnHandoff(e *Engine, sc handoffScenario, ref bool, tr *handoffTrace) {
	r := NewResource(e, sc.servers)
	tr.wakes = make([][]Time, len(sc.procs))
	for i, at := range sc.events {
		tag := fmt.Sprintf("ev%d", i)
		e.At(at, func() { tr.order = append(tr.order, fmt.Sprintf("%s@%d", tag, e.Now())) })
	}
	for i, steps := range sc.procs {
		i, steps := i, steps
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			wake := func(k int, what string) {
				tr.wakes[i] = append(tr.wakes[i], p.Now())
				tr.order = append(tr.order, fmt.Sprintf("p%d.%d.%s@%d", i, k, what, p.Now()))
			}
			release := func(st handoffStep) {
				if st.cbRelease {
					e.AfterCall(st.relDelay, fireRelease, r)
					return
				}
				r.Release()
			}
			for k, st := range steps {
				if st.gap >= 0 {
					p.Sleep(st.gap)
				}
				if r.InUse() == r.Servers() {
					tr.contended++
				}
				switch {
				case st.kind == stepAcquire:
					r.Acquire(p)
					wake(k, "acq")
					p.Sleep(st.hold)
					wake(k, "held")
					release(st)
				case ref:
					r.Acquire(p)
					p.Sleep(st.hold)
					wake(k, "held")
					release(st)
				case st.kind == stepUse:
					r.Use(p, st.hold)
					wake(k, "held")
				default:
					r.Hold(p, st.hold)
					wake(k, "held")
					release(st)
				}
			}
		})
	}
}

// runHandoffSerial runs the scenario on a serial engine.
func runHandoffSerial(t *testing.T, sc handoffScenario, ref bool) handoffTrace {
	t.Helper()
	e := NewEngine()
	var tr handoffTrace
	spawnHandoff(e, sc, ref, &tr)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tr.events, tr.now = e.Events(), e.Now()
	return tr
}

// fireRelay is a shard-1 tick that posts an empty event to shard 0 one
// lookahead out, so shard 0 runs the scenario in short windows whose ends
// fall between its events.
func fireRelay(now Time, arg any) {
	s := arg.(*ShardSet)
	e1 := s.Engine(1)
	e1.Post(s.Engine(0), now.Add(s.PairLookahead(1, 0)), func(Time, any) {}, nil)
	if next := now.Add(45); next < 2000 {
		e1.AtCall(next, fireRelay, s)
	}
}

// runHandoffSharded runs the scenario on shard 0 of a 2-shard set.
func runHandoffSharded(t *testing.T, sc handoffScenario, ref bool) handoffTrace {
	t.Helper()
	s := NewShardSet(uniformLookahead(2, 30*time.Nanosecond))
	var tr handoffTrace
	spawnHandoff(s.Engine(0), sc, ref, &tr)
	s.Engine(1).AtCall(0, fireRelay, s)
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	tr.events, tr.now = s.Engine(0).Events(), s.Engine(0).Now()
	if s.Stats().Windows == 0 {
		t.Fatal("the 2-shard run dispatched no fleet window")
	}
	return tr
}

// TestResourceHandoffMatchesAcquireSleep pins the grant hand-off as exact:
// seeded procs against 1, 2 and 3 servers — same-instant arrivals, zero
// and negative holds, plain Acquire waiters mixed with Hold and Use
// waiters, releases from event callbacks — wake at the same instants, in
// the same global order, with the same event count and final clock as
// when every step is written out as Acquire, Sleep and Release. It runs on
// a serial engine and on shard 0 of a 2-shard set.
func TestResourceHandoffMatchesAcquireSleep(t *testing.T) {
	runs := []struct {
		name string
		run  func(*testing.T, handoffScenario, bool) handoffTrace
	}{{"serial", runHandoffSerial}, {"sharded", runHandoffSharded}}
	for _, rn := range runs {
		t.Run(rn.name, func(t *testing.T) {
			contended := 0
			for servers := 1; servers <= 3; servers++ {
				for seed := int64(1); seed <= 40; seed++ {
					sc := newHandoffScenario(rand.New(rand.NewSource(seed*10+int64(servers))), servers)
					want := rn.run(t, sc, true)
					got := rn.run(t, sc, false)
					contended += got.contended
					label := fmt.Sprintf("servers=%d seed=%d", servers, seed)
					if !reflect.DeepEqual(got.wakes, want.wakes) {
						t.Fatalf("%s: wakes %v, want %v", label, got.wakes, want.wakes)
					}
					if !reflect.DeepEqual(got.order, want.order) {
						t.Fatalf("%s: order %v, want %v", label, got.order, want.order)
					}
					if got.events != want.events || got.now != want.now {
						t.Fatalf("%s: Events()/Now() = %d/%v, want %d/%v", label, got.events, got.now, want.events, want.now)
					}
				}
			}
			if contended == 0 {
				t.Fatal("no step found its servers busy: the hand-off was never exercised")
			}
		})
	}
}

// TestResourceHoldSteadyStateZeroAllocs is the allocation gate on the
// grant hand-off: two procs alternate on one server, so every Hold, Use
// and Acquire queues behind the other proc's hold and is granted by its
// Release.
func TestResourceHoldSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	stop := false
	e.Spawn("other", func(p *Proc) {
		p.SetDaemon()
		for !stop {
			r.Use(p, time.Microsecond)
		}
	})
	allocs := -1.0
	contended, total := 0, 0
	e.Spawn("holder", func(p *Proc) {
		round := func() {
			for _, how := range [...]string{"hold", "use", "acquire"} {
				total++
				if r.InUse() == r.Servers() {
					contended++
				}
				switch how {
				case "hold":
					r.Hold(p, time.Microsecond)
					r.Release()
				case "use":
					r.Use(p, time.Microsecond)
				case "acquire":
					r.Acquire(p)
					p.Sleep(time.Microsecond)
					r.Release()
				}
			}
		}
		round() // warm the wait queue and the event free list
		allocs = testing.AllocsPerRun(100, round)
		stop = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("contended Hold, Use and Acquire allocate %.1f/round, want 0", allocs)
	}
	if contended != total {
		t.Errorf("%d of %d acquisitions found the server busy, want all", contended, total)
	}
}

// liveNames walks the engine's live list head to tail, checking every
// back link.
func liveNames(t *testing.T, e *Engine) []string {
	t.Helper()
	var names []string
	var prev *Proc
	for p := e.live; p != nil; p = p.next {
		if p.prev != prev {
			t.Fatalf("live list: %s's prev is %v, want %v", p.name, p.prev, prev)
		}
		names = append(names, p.name)
		prev = p
	}
	return names
}

// TestDeadlockReportThroughLiveList drives the live list through unlinks
// at its head, middle and tail, then leaves procs stuck behind a server
// that an exited proc leaked, waiting in Acquire, Hold and Use. The
// deadlock report must name each stuck proc once, sorted, and no exited
// one.
func TestDeadlockReportThroughLiveList(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var lists [][]string
	exit := func(d time.Duration) func(p *Proc) {
		return func(p *Proc) {
			p.Sleep(d)
			e.At(p.Now(), func() { lists = append(lists, liveNames(t, e)) })
		}
	}
	// Spawned first, so first to run: takes the only server and exits
	// without releasing it. It is the list's tail.
	e.Spawn("e1", func(p *Proc) {
		r.Acquire(p)
		exit(3 * time.Microsecond)(p)
	})
	e.Spawn("s-use", func(p *Proc) { r.Use(p, time.Microsecond) })
	e.Spawn("e2", func(p *Proc) {
		exit(2 * time.Microsecond)(p)
		// A recycled shell relinks at the head and leaves again.
		e.Spawn("e4", exit(1500*time.Nanosecond))
	})
	e.Spawn("s-acquire", func(p *Proc) { r.Acquire(p) })
	e.Spawn("s-hold", func(p *Proc) { r.Hold(p, time.Microsecond) })
	e.Spawn("e3", exit(time.Microsecond)) // the head
	if got, want := liveNames(t, e), []string{"e3", "s-hold", "s-acquire", "e2", "s-use", "e1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live list after Spawn = %v, want %v", got, want)
	}
	err := e.Run()
	wantLists := [][]string{
		{"s-hold", "s-acquire", "e2", "s-use", "e1"}, // e3 left the head
		{"e4", "s-hold", "s-acquire", "s-use", "e1"}, // e2 left the middle
		{"e4", "s-hold", "s-acquire", "s-use"},       // e1 left the tail
		{"s-hold", "s-acquire", "s-use"},             // e4 left the head
	}
	if !reflect.DeepEqual(lists, wantLists) {
		t.Errorf("live lists after each exit = %v, want %v", lists, wantLists)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want DeadlockError", err)
	}
	want := []string{
		"s-acquire (waiting for resource)",
		"s-hold (waiting for resource)",
		"s-use (waiting for resource)",
	}
	if !reflect.DeepEqual(dl.Procs, want) {
		t.Fatalf("DeadlockError.Procs = %q, want %q", dl.Procs, want)
	}
}
