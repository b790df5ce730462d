package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
}

func TestProcsInterleaveByTime(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		trace = append(trace, "a1")
		p.Sleep(2 * time.Millisecond) // wakes at 3ms
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestYieldRunsBehindPendingEvents(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("first", func(p *Proc) {
		trace = append(trace, "first-before-yield")
		p.Yield()
		trace = append(trace, "first-after-yield")
	})
	e.Spawn("second", func(p *Proc) {
		trace = append(trace, "second")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first-before-yield", "second", "first-after-yield"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil for panicking proc")
	}
	var pe *ProcError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T, want *ProcError", err)
	}
	if pe.Proc != "bomb" || pe.Value != "boom" {
		t.Fatalf("ProcError = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("error string %q missing panic value", pe.Error())
	}
}

func TestProcExitTerminatesCleanly(t *testing.T) {
	e := NewEngine()
	reached := false
	var p1 *Proc
	p1 = e.Spawn("exiter", func(p *Proc) {
		p.Exit()
		reached = true // unreachable
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("code after Exit ran")
	}
	if !p1.Done() {
		t.Fatal("proc not marked done after Exit")
	}
}

// TestHandlerMarkOnRecycledShell: a proc that exits while marked as
// running a handler leaves its shell marked, and the next proc spawned on
// that shell starts unmarked, so its Cond.Wait parks instead of failing.
func TestHandlerMarkOnRecycledShell(t *testing.T) {
	e := NewEngine()
	var handler *Proc
	handler = e.Spawn("handler", func(p *Proc) {
		p.SetInHandler(true)
		p.Exit()
	})
	c := NewCond(e)
	woke := false
	e.Spawn("spawner", func(p *Proc) {
		p.Sleep(time.Nanosecond) // the handler's shell is idle now
		if e.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woke = true
		}) != handler {
			t.Error("waiter did not reuse the handler's shell")
		}
		e.Spawn("signaler", func(p *Proc) { c.Signal() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want the recycled shell unmarked", err)
	}
	if !woke {
		t.Fatal("waiter never woke")
	}
}

// TestProcGoexitEndsRunGoroutine pins what runtime.Goexit (and so
// t.FailNow) does in a proc body: it propagates to the goroutine that
// resumed the proc. On a serial engine that ends the goroutine calling
// Run — Run does not return, nothing panics, nothing hangs.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	type outcome struct {
		returned bool
		panicked any
	}
	res := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover() // nil under Goexit
			res <- o
		}()
		e := NewEngine()
		e.Spawn("goexit", func(p *Proc) {
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		_ = e.Run()
		o.returned = true
	}()
	select {
	case o := <-res:
		if o.panicked != nil {
			t.Fatalf("Goexit in a proc body panicked: %v", o.panicked)
		}
		if o.returned {
			t.Fatal("Run returned after a proc body called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Goexit in a proc body hung the engine")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p) // nobody will ever signal
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || !strings.Contains(de.Procs[0], "stuck") {
		t.Fatalf("DeadlockError.Procs = %v", de.Procs)
	}
}

// TestRunUntilReportsDeadlock: RunUntil returns Run's errors, so a queue
// that drains while a non-daemon proc stays parked is a deadlock even
// before t; a parked proc with an event still due after t is not.
func TestRunUntilReportsDeadlock(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p) // nobody will ever signal
	})
	err := e.RunUntil(Time(time.Second))
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("RunUntil = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || !strings.Contains(de.Procs[0], "stuck") {
		t.Fatalf("DeadlockError.Procs = %v", de.Procs)
	}
	if e.Now() != Time(time.Second) {
		t.Fatalf("Now() = %v, want 1s", e.Now())
	}

	e = NewEngine()
	c = NewCond(e)
	e.Spawn("waiting", func(p *Proc) { c.Wait(p) })
	e.AtCall(Time(2*time.Second), func(Time, any) { c.Signal() }, nil)
	if err := e.RunUntil(Time(time.Second)); err != nil {
		t.Fatalf("RunUntil with a wake-up still due = %v, want nil", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonProcsDoNotDeadlock(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("service", func(p *Proc) {
		p.SetDaemon()
		for {
			c.Wait(p)
		}
	})
	e.Spawn("work", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon proc caused error: %v", err)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	e.Spawn("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine mismatch")
		}
		if p.Now() != 0 {
			t.Errorf("Now = %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i%7) * time.Microsecond)
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("completed %d procs, want %d", count, n)
	}
}
