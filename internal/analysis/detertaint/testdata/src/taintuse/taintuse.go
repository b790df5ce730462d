// Package taintuse calls into taintdep. Nothing crosses the package
// boundary: taintdep's wall-clock reads are reported in taintdep, where
// the same analyzer runs, and the map-order call is reported here.
package taintuse

import (
	"io"

	"taintdep"
)

type Time int64

type Engine struct{ now Time }

func (e *Engine) Now() Time             { return e.now }
func (e *Engine) At(at Time, fn func()) {}

// scheduleStamp schedules at a dependency's wall-clock read; the read is
// the site.
func scheduleStamp(e *Engine) {
	e.At(Time(taintdep.Stamp()), func() {})
}

// scheduleSpan does the same through taintdep's two-hop chain.
func scheduleSpan(e *Engine) {
	e.At(Time(taintdep.Span()), func() {})
}

// drain calls a dependency sink while ranging a map.
func drain(w io.Writer, m map[int]int) {
	for _, v := range m {
		taintdep.Emit(w, v) // want "call to Emit while ranging over a map"
	}
}
