//go:build go1.23

// The constraint above raises this file's language version to the Go 1.23
// that iter.Pull needs, and go.mod's toolchain line selects such a Go. The
// module's go line stays at 1.22 because the benchmark module
// (benchmark/go.mod, go 1.22) replaces this one, and a dependency may not
// declare a newer go line than the main module.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Proc is a simulated thread of execution: a coroutine that the engine
// resumes one at a time. Code running inside a proc may block in virtual
// time with Sleep, Cond.Wait, Resource.Acquire and friends; while blocked,
// other procs and events run. Methods on Proc must only be called from the
// proc's own body function.
//
// Each proc shell owns one stdlib coroutine (iter.Pull over loop) that runs
// one spawned body per assignment. Dispatch resumes it and park yields back,
// each a direct runtime.coroswitch that bypasses the Go scheduler's run
// queue, and any goroutine may resume it (shard workers take turns). The
// coroutine is created on the shell's first Spawn, kept while the shell is
// recycled across Spawns, and stopped when the engine's Run or RunUntil
// (or its ShardSet's Run) returns; a proc still parked then — a daemon or
// a deadlocked proc — keeps its coroutine.
//
// A body must not call runtime.Goexit (t.FailNow does): the Goexit
// propagates to the goroutine that resumed the proc. On a serial engine
// that ends the goroutine calling Run, after Run's deferred teardown; under
// a ShardSet it would end a shard worker mid-hop, so bodies must not Goexit
// under a ShardSet.
type Proc struct {
	e    *Engine
	name string
	// fn is the body of the current assignment, cleared once it starts so
	// an idle shell pins nothing the body captured.
	fn func(p *Proc)
	// resume/yield switch control between the engine's event loop and the
	// proc; stop ends an idle shell's coroutine (releaseShells).
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	// waiter is the proc's condition-variable wait record. A parked proc
	// waits on at most one Cond at a time, so embedding the record here
	// makes Cond.Wait allocation-free (see Cond.Wait for the lifetime
	// invariant).
	waiter condWaiter
	// hold is the hold a proc queued on a Resource asked for, or noHold
	// for a plain Acquire; Release reads it when it passes the proc a
	// server (see Resource.Hold).
	hold time.Duration
	// prev and next link the proc into its engine's live list (Engine.live)
	// from Spawn until its body exits.
	prev, next *Proc
	done       bool
	daemon     bool
	parkReason string
}

// fireDispatch is the typed-event callback that resumes a parked proc. All
// proc scheduling (Spawn, Sleep, cond wakeups, resource handoff) goes
// through this one top-level function with the proc as the pre-bound
// argument, so rescheduling a proc never allocates.
func fireDispatch(_ Time, arg any) { arg.(*Proc).dispatch() }

// errProcExit is the sentinel panic value used by Exit for early return.
type procExit struct{}

// ProcError wraps a panic that escaped a proc body.
type ProcError struct {
	Proc  string
	Value any
	Stack string
}

func (e *ProcError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// Spawn creates a proc named name running fn, scheduled to start at the
// current virtual time (after already-pending same-time events).
//
// Proc shells (the struct and its coroutine) are recycled once a proc's
// body returns, so fork-join workloads that spawn short-lived worker procs
// per round neither allocate nor start goroutines in steady state. The
// returned *Proc is therefore only meaningful until the body returns —
// callers must not retain it past proc exit (no caller in this codebase
// does; procs interact with their own *Proc argument).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		p.name = name
		p.done = false
		p.daemon = false
	} else {
		p = &Proc{e: e, name: name}
		p.waiter.p = p
		p.resume, p.stop = iter.Pull(p.loop)
	}
	p.fn = fn
	p.next = e.live
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
	e.scheduleCall(e.now, fireDispatch, p)
	return p
}

// loop is the shell's coroutine: it runs one assigned body per resume
// after the previous body's exit, until releaseShells stops it.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the assigned body, turning an escaped panic into a
// ProcError.
func (p *Proc) run() {
	fn := p.fn
	p.fn = nil
	defer func() {
		r := recover()
		if r != nil {
			if _, isExit := r.(procExit); !isExit {
				p.e.fail(&ProcError{Proc: p.name, Value: r, Stack: string(debug.Stack())})
			}
		}
		p.done = true
		p.e.unlink(p)
	}()
	fn(p)
}

// unlink removes an exited proc from the engine's live list.
func (e *Engine) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// dispatch hands control to the proc and returns when it parks or exits.
// It runs on the engine's event loop.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.resume()
	if p.done {
		// The coroutine is back at loop's yield, waiting for its next
		// assignment. Every wake is guarded by a consumed-once flag (cond
		// waiter done, timer seq), so no stale dispatch event can still
		// reference this proc.
		p.e.procFree = append(p.e.procFree, p)
	}
}

// park returns control to the engine until the proc is dispatched again.
func (p *Proc) park(reason string) {
	p.parkReason = reason
	p.yield(struct{}{})
	p.parkReason = ""
}

// releaseShells stops the coroutines of the engine's idle proc shells. It
// runs when Run, RunUntil or ShardSet.Run returns: a finished engine would
// otherwise keep one suspended coroutine per shell for the GC to scan.
func (e *Engine) releaseShells() {
	for i, p := range e.procFree {
		p.stop()
		e.procFree[i] = nil
	}
	e.procFree = e.procFree[:0]
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// SetDaemon marks the proc as a daemon: it may remain parked when the
// simulation ends without triggering a DeadlockError. Use for background
// service loops whose lifetime matches the whole simulation.
func (p *Proc) SetDaemon() { p.daemon = true }

// Done reports whether the proc's body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the proc for d of virtual time. Non-positive d yields the
// processor (the proc is rescheduled behind already-pending same-time
// events) without advancing the clock.
//
// When the proc's own wake-up is the next event the running loop would
// execute — it is the queue's next live event, lies within the loop's
// horizon, and no failure has been recorded — Sleep takes it and
// continues in place, with no park and no coroutine switch (see
// Engine.wakeInPlace). Only that event runs on the proc's stack; the
// timeline is the one parking would give.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	if e.wakeInPlace(e.scheduleCall(e.now.Add(d), fireDispatch, p)) {
		return
	}
	p.park("sleeping")
}

// Yield reschedules the proc behind all currently pending same-time events,
// giving other runnable procs a chance to execute at this instant.
func (p *Proc) Yield() { p.Sleep(0) }

// Exit terminates the proc immediately, as if its body had returned.
func (p *Proc) Exit() { panic(procExit{}) }
