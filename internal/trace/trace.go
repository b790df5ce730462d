// Package trace records simulation activity as events viewable in
// chrome://tracing / Perfetto (the Trace Event JSON format). Benchmark
// harnesses and application code emit spans around the calls they make;
// virtual timestamps map directly onto the trace timeline, so a recorded
// round renders exactly like the paper's Figure 10 arrival diagrams. The
// package also generates the synthetic Pready arrival schedules benchmarks
// drive (ArrivalPattern): a pattern's only settings are its kind, seed,
// and delay scale.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Event is one trace record: a span's begin or end ("B" or "E" phase).
type Event struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	// TimestampUS is microseconds on the trace timeline (virtual time).
	TimestampUS float64           `json:"ts"`
	PID         int               `json:"pid"`
	TID         int               `json:"tid"`
	Args        map[string]string `json:"args,omitempty"`
}

// Recorder accumulates events.
type Recorder struct {
	events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Span records a [from, to) interval on (pid, tid) — pid is conventionally
// the rank, tid the thread/partition.
func (r *Recorder) Span(name string, from, to sim.Time, pid, tid int, args map[string]string) {
	if to < from {
		panic(fmt.Sprintf("trace: span %q ends (%v) before it begins (%v)", name, to, from))
	}
	r.events = append(r.events,
		Event{Name: name, Phase: "B", TimestampUS: from.Micros(), PID: pid, TID: tid, Args: args},
		Event{Name: name, Phase: "E", TimestampUS: to.Micros(), PID: pid, TID: tid},
	)
}

// WriteJSON emits the Trace Event JSON array, sorted by timestamp (the
// format chrome://tracing and Perfetto load directly).
func (r *Recorder) WriteJSON(w io.Writer) error {
	sorted := append([]Event(nil), r.events...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].TimestampUS < sorted[j].TimestampUS
	})
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range sorted {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
