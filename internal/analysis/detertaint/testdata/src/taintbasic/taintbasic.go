// Package taintbasic is the core detertaint fixture: wall-clock and
// math/rand values flowing into scheduling, map-iteration order flowing
// into report writes, the collect-sort shape, sync.Map traversal, and
// sinks behind local helper chains. Each defect is reported at its
// source — the clock read, the math/rand import, the call made in map
// order — not where the value lands.
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
	e.At(t, func() {})
}

// randJitter mixes the engine clock with a rand draw; the math/rand
// import is the site.
func randJitter(e *Engine) {
	jitter := Time(rand.Intn(10))
	e.At(e.Now()+jitter, func() {})
}

// sameClock schedules on the engine's own timeline: clean.
func sameClock(e *Engine) {
	e.At(e.Now()+1, func() {})
}

// dumpUnsorted writes keys in map order.
func dumpUnsorted(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k) // want "call to Fprintln while ranging over a map"
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

// emit writes one record.
func emit(w io.Writer, s string) {
	fmt.Fprintln(w, s)
}

// relay forwards to emit, putting the sink two hops down.
func relay(w io.Writer, s string) {
	emit(w, s)
}

// dumpViaHelpers hides the writer behind the helper chain; the call at
// the map range is the site.
func dumpViaHelpers(w io.Writer, m map[string]int) {
	for k := range m {
		relay(w, k) // want "call to relay while ranging over a map"
	}
}

// stamp returns wall-clock data; the read is the site, not its callers.
func stamp() Time {
	return Time(time.Now().UnixNano()) // want "time.Now in a sim-reachable package"
}

func scheduleAtStamp(e *Engine) {
	e.At(stamp(), func() {})
}

// weight acts on nothing outside its arguments.
func weight(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// sumSyncMap calls a pure helper per entry and folds into an outer
// variable: the map-order ban fires on any call that is not a builtin, a
// conversion or Sprint*, whatever the callee reaches, and on the fold.
func sumSyncMap(m *sync.Map) int {
	n := 0
	m.Range(func(k, v any) bool {
		n += weight(v) // want "assignment to n while ranging over a sync.Map" "call to weight while ranging over a sync.Map"
		return true
	})
	return n
}
