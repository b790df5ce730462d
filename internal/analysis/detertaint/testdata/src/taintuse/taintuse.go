// Package taintuse consumes taintdep's exported facts: taint and sink
// summaries cross the package boundary through the vetx channel.
package taintuse

import (
	"io"

	"taintdep"
)

type Time int64

type Engine struct{ now Time }

func (e *Engine) Now() Time             { return e.now }
func (e *Engine) At(at Time, fn func()) {}

// scheduleStamp schedules at a dependency's wall-clock read.
func scheduleStamp(e *Engine) {
	e.At(Time(taintdep.Stamp()), func() {}) // want "nondeterministic value \(from time.Now\) flows into Engine.At"
}

// scheduleSpan does the same through taintdep's two-hop chain.
func scheduleSpan(e *Engine) {
	e.At(Time(taintdep.Span()), func() {}) // want "nondeterministic value \(from time.Now\) flows into Engine.At"
}

// drain calls a dependency sink while ranging a map.
func drain(w io.Writer, m map[int]int) {
	for _, v := range m {
		taintdep.Emit(w, v) // want "nondeterministic value \(from map iteration order\) passed to taintdep.Emit" "call to Emit while ranging over a map"
	}
}
