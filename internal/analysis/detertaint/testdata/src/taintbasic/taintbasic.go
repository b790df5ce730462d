// Package taintbasic is the core detertaint fixture: wall-clock and
// math/rand values flowing into scheduling, map-iteration order flowing
// into report writes, the collect-sort sanitizer, sync.Map traversal,
// and sink summaries composed through local helper chains.
package taintbasic

import (
	"fmt"
	"io"
	"math/rand" // want "import of math/rand in a sim-reachable package"
	"sort"
	"sync"
	"time"
)

type Time int64

type Engine struct{ now Time }

func (e *Engine) Now() Time                                                { return e.now }
func (e *Engine) At(at Time, fn func())                                    {}
func (e *Engine) AtCall(at Time, fire func(Time, any), arg any)            {}
func (e *Engine) Post(dst *Engine, at Time, fire func(Time, any), arg any) {}

// wallClock schedules at a wall-clock-derived time.
func wallClock(e *Engine) {
	t := Time(time.Now().UnixNano()) // want "time.Now in a sim-reachable package"
	e.At(t, func() {}) // want "nondeterministic value \(from time.Now\) flows into Engine.At"
}

// randJitter mixes the engine clock with a rand draw; the rand taint is
// what must surface.
func randJitter(e *Engine) {
	jitter := Time(rand.Intn(10))
	e.At(e.Now()+jitter, func() {}) // want "nondeterministic value \(from math/rand.Intn\) flows into Engine.At"
}

// sameClock schedules on the engine's own timeline: clean.
func sameClock(e *Engine) {
	e.At(e.Now()+1, func() {})
}

// dumpUnsorted writes keys in map order: both the tainted argument and
// the emission-inside-range shape fire.
func dumpUnsorted(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k) // want "nondeterministic value \(from map iteration order\) flows into fmt.Fprintln" "call to Fprintln while ranging over a map"
	}
}

// dumpSorted is the sanctioned collect-sort shape: clean.
func dumpSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

// dumpSyncMap emits while walking a sync.Map: traversal order is as
// random as a map range's.
func dumpSyncMap(w io.Writer, m *sync.Map) {
	m.Range(func(k, v any) bool {
		fmt.Fprintln(w, k) // want "call to Fprintln while ranging over a sync.Map"
		return true
	})
}

// emit writes one record: its summary is a sink forwarding both params.
func emit(w io.Writer, s string) {
	fmt.Fprintln(w, s)
}

// relay forwards to emit, putting the sink two hops down.
func relay(w io.Writer, s string) {
	emit(w, s)
}

// dumpViaHelpers hides the writer behind the helper chain; the summary
// still carries the sink back to the map range.
func dumpViaHelpers(w io.Writer, m map[string]int) {
	for k := range m {
		relay(w, k) // want "nondeterministic value \(from map iteration order\) passed to relay" "call to relay while ranging over a map"
	}
}

// stamp returns wall-clock data; callers inherit the taint through the
// local summary.
func stamp() Time {
	return Time(time.Now().UnixNano()) // want "time.Now in a sim-reachable package"
}

func scheduleAtStamp(e *Engine) {
	e.At(stamp(), func() {}) // want "nondeterministic value \(from time.Now\) flows into Engine.At"
}

// weight reaches no sink: it acts on nothing outside its arguments.
func weight(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// sumSyncMap calls a sink-free helper per entry: the map-order ban fires
// on any call that is not a builtin, a conversion or Sprint*, whatever
// the callee reaches.
func sumSyncMap(m *sync.Map) int {
	n := 0
	m.Range(func(k, v any) bool {
		n += weight(v) // want "call to weight while ranging over a sync.Map"
		return true
	})
	return n
}
