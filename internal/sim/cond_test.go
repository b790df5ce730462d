package sim

import (
	"testing"
	"time"
)

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order %v, want %v", woke, want)
		}
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if c.Waiters() != 5 {
			t.Errorf("Waiters = %d, want 5", c.Waiters())
		}
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke %d, want 5", woke)
	}
}

func TestCondSignalWithNoWaitersIsNoop(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	c.Signal()
	c.Broadcast()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var signaled bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		signaled = c.WaitTimeout(p, 5*time.Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if signaled {
		t.Fatal("WaitTimeout reported signaled on timeout")
	}
	if at != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
	if c.Waiters() != 0 {
		t.Fatalf("stale waiter left: %d", c.Waiters())
	}
}

func TestWaitTimeoutSignaledEarly(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var signaled bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		signaled = c.WaitTimeout(p, 10*time.Millisecond)
		at = p.Now()
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !signaled {
		t.Fatal("WaitTimeout reported timeout despite broadcast")
	}
	if at != Time(2*time.Millisecond) {
		t.Fatalf("woke at %v, want 2ms", at)
	}
	// The cancelled timeout must not fire later.
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after run", e.Pending())
	}
}

func TestWaitTimeoutSignalAndTimeoutSameInstant(t *testing.T) {
	// Broadcast exactly at the timeout instant: the broadcast is issued
	// synchronously by a proc that runs before the timer event, so the
	// waiter must observe "signaled".
	e := NewEngine()
	c := NewCond(e)
	var signaled bool
	e.Spawn("w", func(p *Proc) {
		signaled = c.WaitTimeout(p, 2*time.Millisecond)
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if signaled {
		// Timer event was scheduled before the signaler's wake event, so
		// FIFO ordering at the same instant makes timeout win. Either
		// outcome is defensible; this test pins the deterministic one.
		t.Fatal("expected deterministic timeout-first ordering at equal instants")
	}
}

func signalCond(_ Time, arg any) { arg.(*Cond).Signal() }

// TestWaitTimeoutSteadyStateZeroAllocs is the allocation gate on timed
// waits (the §IV-D timer aggregator parks on one per group per round):
// once the engine's free list is warm, neither the timeout path nor the
// signal path allocates, and a cancelled timeout leaves nothing pending.
func TestWaitTimeoutSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	timeouts, signals := -1.0, -1.0
	e.Spawn("waiter", func(p *Proc) {
		timeout := func() {
			if c.WaitTimeout(p, time.Microsecond) {
				t.Error("timeout path reported a signal")
			}
		}
		signal := func() {
			e.AfterCall(time.Microsecond, signalCond, c)
			if !c.WaitTimeout(p, 2*time.Microsecond) {
				t.Error("signal path reported a timeout")
			}
			// Outlive the cancelled timeout so the queue recycles it, as
			// the next round of a real run does.
			p.Sleep(2 * time.Microsecond)
		}
		timeout()
		signal() // warm the event free list
		timeouts = testing.AllocsPerRun(100, timeout)
		signals = testing.AllocsPerRun(100, signal)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if timeouts != 0 || signals != 0 {
		t.Errorf("WaitTimeout allocates %.1f/op on timeout and %.1f/op on signal, want 0", timeouts, signals)
	}
	if e.Pending() != 0 {
		t.Errorf("%d events pending after the run", e.Pending())
	}
}

func TestGroupWaits(t *testing.T) {
	e := NewEngine()
	g := NewGroup(e)
	finished := 0
	g.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			finished++
			g.Done()
		})
	}
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		g.Wait(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
	if at != Time(3*time.Millisecond) {
		t.Fatalf("waiter woke at %v, want 3ms", at)
	}
}

func TestGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	g := NewGroup(e)
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter did not panic")
		}
	}()
	g.Done()
}

func TestGroupWaitWhenZeroReturnsImmediately(t *testing.T) {
	e := NewEngine()
	g := NewGroup(e)
	ran := false
	e.Spawn("w", func(p *Proc) {
		g.Wait(p)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Wait on zero group blocked")
	}
}
