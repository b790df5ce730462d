// Package a is a callbackblock fixture: completion callbacks registered
// through the recognized registrars, containing each blocking class and
// the one non-blocking park, a virtual-time sleep.
package a

import (
	"sync"
	"time"

	"repro/internal/sim"
)

type QPConfig struct{ MaxSendWR int }

type engine struct {
	mu   sync.Mutex
	cond *sim.Cond
	res  *sim.Resource
	ch   chan uint64
	out  chan uint64
	done []uint64
	seq  uint64
}

func (e *engine) CreateQP(cfg QPConfig, onWC func(p *sim.Proc, id uint64)) {}
func (e *engine) SetEagerHandler(h func(src int, b []byte))                  {}
func (e *engine) SetRndv(h func(id uint64))                                  {}
func (e *engine) HandleCtrl(kind int, h func(pay uint64))                    {}

func (e *engine) wire() {
	e.CreateQP(QPConfig{}, func(p *sim.Proc, id uint64) {
		// A virtual-time charge resumes on its own timer: clean.
		p.Sleep(1)
		e.ch <- id // want "channel send in completion callback"
	})
	e.CreateQP(QPConfig{MaxSendWR: 1}, e.onWC)
	e.SetEagerHandler(e.onEager)
	e.SetRndv(e.onRndv)
	e.HandleCtrl(1, func(pay uint64) {
		e.mu.Lock() // want "sync mutex Lock in completion callback"
		e.seq = pay
		e.mu.Unlock()
	})
	e.HandleCtrl(2, e.onCtrlOK)
}

// onWC reaches a blocking helper through a QP completion handler
// registered as a method value.
func (e *engine) onWC(p *sim.Proc, id uint64) {
	e.settle(p)
}

func (e *engine) settle(p *sim.Proc) {
	e.cond.Wait() // want "blocking sim.Wait in completion callback onWC"
}

func (e *engine) onEager(src int, b []byte) {
	e.cond.Wait() // want "blocking sim.Wait in completion callback onEager"
	e.record(uint64(src))
}

// record is only reached from onEager: the Acquire is flagged with the
// registered callback, not this helper, as the origin.
func (e *engine) record(id uint64) {
	e.res.Acquire(1) // want "blocking sim.Acquire in completion callback onEager"
	e.res.Hold(1)    // want "blocking sim.Hold in completion callback onEager"
	e.res.Use(1)     // want "blocking sim.Use in completion callback onEager"
	e.done = append(e.done, id)
}

func (e *engine) onRndv(id uint64) {
	time.Sleep(time.Millisecond) // want "time.Sleep in completion callback onRndv"
	v := <-e.ch                  // want "channel receive in completion callback onRndv"
	select { // want "blocking select in completion callback onRndv"
	case e.out <- v:
	case w := <-e.ch:
		_ = w
	}
	for got := range e.ch { // want "range over channel in completion callback onRndv"
		_ = got
	}
}

// onCtrlOK is the sanctioned shape: record state, hand off without
// parking, drop on overflow rather than block.
func (e *engine) onCtrlOK(pay uint64) {
	e.done = append(e.done, pay)
	select {
	case e.out <- pay:
	default:
	}
}

// drain is not registered as a callback, so its blocking ops are fine.
func (e *engine) drain() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return <-e.out
}
