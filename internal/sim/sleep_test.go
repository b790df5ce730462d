package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// These tests pin the limits of Sleep's in-place path (Engine.wakeInPlace):
// a sleeper continues without a park only when its own wake-up is the next
// event the running loop would execute, so every timeline below must be the
// one parking gives.

// TestSleepContinuesInPlace: a lone sleeper under Run never parks, and each
// in-place wake-up still counts as an executed event.
func TestSleepContinuesInPlace(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
			woke = append(woke, p.Now())
		}
		p.Yield()
		woke = append(woke, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1000, 2000, 3000, 4000, 5000, 5000}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if got := e.SchedStats().InPlace; got != 6 {
		t.Errorf("InPlace = %d, want 6", got)
	}
	if got := e.Events(); got != 7 { // the spawn plus six wake-ups
		t.Errorf("Events() = %d, want 7", got)
	}
}

// TestSleepRunsEarlierSameInstantEventFirst: an event at the sleeper's wake
// instant that was scheduled before the Sleep has the smaller seq, so it
// runs before the sleeper continues — in the buckets and in the
// same-instant ring alike.
func TestSleepRunsEarlierSameInstantEventFirst(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.At(Time(2000), func() { trace = append(trace, "event@2us") })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		trace = append(trace, "sleeper@2us")
		e.At(p.Now(), func() { trace = append(trace, "ring@2us") })
		p.Yield()
		trace = append(trace, "sleeper-after-yield")
		p.Sleep(time.Microsecond)
		trace = append(trace, "sleeper@3us")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"event@2us", "sleeper@2us", "ring@2us", "sleeper-after-yield", "sleeper@3us"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// Only the last Sleep had nothing ahead of its wake-up.
	if got := e.SchedStats().InPlace; got != 1 {
		t.Errorf("InPlace = %d, want 1", got)
	}
}

// TestRunUntilLeavesLaterSleeperParked: RunUntil(t) runs a sleeper's
// wake-ups in place up to and including t, and leaves one that wakes after
// t parked with the clock at t. RunUntil at the largest time has no bound.
func TestRunUntilLeavesLaterSleeperParked(t *testing.T) {
	e := NewEngine()
	var woke []Time
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		for _, d := range []time.Duration{1, 2, 3} {
			p.Sleep(d * time.Millisecond)
			woke = append(woke, p.Now())
		}
	})
	const t1 = Time(3 * time.Millisecond)
	if err := e.RunUntil(t1); err != nil {
		t.Fatal(err)
	}
	if e.Now() != t1 {
		t.Fatalf("Now() = %v after RunUntil(%v)", e.Now(), t1)
	}
	if want := []Time{Time(time.Millisecond), t1}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v by %v, want %v", woke, t1, want)
	}
	if sleeper.Done() || sleeper.parkReason != "sleeping" {
		t.Fatalf("sleeper done=%v parked %q, want parked sleeping", sleeper.Done(), sleeper.parkReason)
	}
	if got := e.SchedStats().InPlace; got != 2 { // the second at exactly t
		t.Errorf("InPlace = %d after RunUntil, want 2", got)
	}
	if err := e.RunUntil(timeInf); err != nil {
		t.Fatal(err)
	}
	if !sleeper.Done() || len(woke) != 3 || woke[2] != Time(6*time.Millisecond) {
		t.Fatalf("after RunUntil(max): done=%v woke=%v", sleeper.Done(), woke)
	}
	if e.Now() != timeInf {
		t.Fatalf("Now() = %v after RunUntil(max)", e.Now())
	}
}

// TestStepExecutesOneEventPerStep: an engine driven by Step alone never
// continues a sleeper in place; every Step executes exactly one event.
func TestStepExecutesOneEventPerStep(t *testing.T) {
	e := NewEngine()
	wakes := 0
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(time.Microsecond)
			wakes++
		}
	})
	for k := 1; e.Step(); k++ {
		if got := e.Events(); got != uint64(k) {
			t.Fatalf("step %d: Events() = %d", k, got)
		}
		if wakes != k-1 || e.Now() != Time(k-1)*Time(time.Microsecond) {
			t.Fatalf("step %d: %d wake-ups at %v, want %d at %v", k, wakes, e.Now(), k-1, Time(k-1)*Time(time.Microsecond))
		}
	}
	if wakes != 4 || e.SchedStats().InPlace != 0 {
		t.Fatalf("wakes = %d, InPlace = %d; want 4, 0", wakes, e.SchedStats().InPlace)
	}
	if err := e.Run(); err != nil { // release the exited shell
		t.Fatal(err)
	}
}

// pingPong is a two-node workload for the sharded in-place check: node 0's
// proc posts a ping to node 1 and then sleeps, first briefly (the wake-up
// precedes the pong, so it may run in place) and then past its window end,
// across the pong that node 1 returns inside that sleep.
type pingPong struct {
	engs [2]*Engine
	logs [2][]string
}

func firePing(now Time, arg any) {
	pp := arg.(*pingPong)
	pp.logs[1] = append(pp.logs[1], fmt.Sprintf("ping@%v", now))
	pp.engs[1].Post(pp.engs[0], now.Add(cascadeLambda), firePong, pp)
}

func firePong(now Time, arg any) {
	pp := arg.(*pingPong)
	pp.logs[0] = append(pp.logs[0], fmt.Sprintf("pong@%v", now))
}

func (pp *pingPong) spawn(rounds int) {
	e0 := pp.engs[0]
	e0.Spawn("pinger", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			e0.Post(pp.engs[1], p.Now().Add(cascadeLambda), firePing, pp)
			p.Sleep(cascadeLambda / 2)
			pp.logs[0] = append(pp.logs[0], fmt.Sprintf("half@%v", p.Now()))
			p.Sleep(3 * cascadeLambda)
			pp.logs[0] = append(pp.logs[0], fmt.Sprintf("wake@%v", p.Now()))
		}
	})
}

// TestShardedSleepAcrossWindowEndMatchesSerial: on 2 shards, the ping
// pulls node 0's window end down to ping+λ (ShardSet.post's self-cap), so
// the long sleep's wake-up lies past the live bound and must park until the
// pong, posted from the other shard inside the sleep, has been delivered.
// The timeline must equal the serial engine's.
func TestShardedSleepAcrossWindowEndMatchesSerial(t *testing.T) {
	const rounds = 20
	serial := &pingPong{}
	e := NewEngine()
	serial.engs = [2]*Engine{e, e}
	serial.spawn(rounds)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(serial.logs[0]); got != 3*rounds {
		t.Fatalf("serial node 0 logged %d entries, want %d", got, 3*rounds)
	}
	for _, workers := range []int{1, 2} {
		s := NewShardSet(uniformLookahead(2, cascadeLambda))
		sharded := &pingPong{engs: [2]*Engine{s.Engine(0), s.Engine(1)}}
		sharded.spawn(rounds)
		if err := s.Run(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sharded.logs, serial.logs) {
			t.Fatalf("workers=%d: sharded timeline\n%v\nwant serial\n%v", workers, sharded.logs, serial.logs)
		}
		// The short sleeps ran in place inside their window; the long
		// ones crossed it and parked.
		if got := s.Engine(0).SchedStats().InPlace; got != rounds {
			t.Errorf("workers=%d: InPlace = %d on shard 0, want %d", workers, got, rounds)
		}
	}
}

// TestSleepSteadyStateZeroAllocs is the allocation gate on Sleep, on both
// of its paths: a lone sleeper continuing in place, and two interleaved
// sleepers whose every wake-up has the other's ahead of it, so each Sleep
// parks and resumes.
func TestSleepSteadyStateZeroAllocs(t *testing.T) {
	run := func(t *testing.T, interleaved bool, wantInPlace func(n uint64) bool) {
		e := NewEngine()
		stop := false
		if interleaved {
			e.Spawn("other", func(p *Proc) {
				p.SetDaemon()
				p.Sleep(time.Microsecond)
				for !stop {
					p.Sleep(2 * time.Microsecond)
				}
			})
		}
		allocs := -1.0
		var before, after SchedStats
		e.Spawn("sleeper", func(p *Proc) {
			round := func() { p.Sleep(2 * time.Microsecond) }
			round() // warm the event free list
			before = e.SchedStats()
			allocs = testing.AllocsPerRun(100, round)
			after = e.SchedStats()
			stop = true
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("Sleep allocates %.1f/op, want 0", allocs)
		}
		if n := after.InPlace - before.InPlace; !wantInPlace(n) {
			t.Errorf("%d of 101 Sleeps ran in place", n)
		}
	}
	t.Run("in-place", func(t *testing.T) {
		run(t, false, func(n uint64) bool { return n == 101 })
	})
	t.Run("parked", func(t *testing.T) {
		run(t, true, func(n uint64) bool { return n == 0 })
	})
}

// TestSleepParksAfterFailure: once a failure is recorded the loop stops at
// the next event boundary, so a sleeper must not continue past it in place.
func TestSleepParksAfterFailure(t *testing.T) {
	e := NewEngine()
	errStop := errors.New("stop")
	woke := false
	e.Spawn("sleeper", func(p *Proc) {
		e.fail(errStop)
		p.Sleep(time.Microsecond)
		woke = true
	})
	if err := e.Run(); err != errStop {
		t.Fatalf("Run() = %v, want %v", err, errStop)
	}
	if woke || e.SchedStats().InPlace != 0 {
		t.Fatalf("sleeper continued after the failure (InPlace = %d)", e.SchedStats().InPlace)
	}
}
