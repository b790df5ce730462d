package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestSpanAndInstantJSON(t *testing.T) {
	r := New()
	r.Span("compute", sim.Time(1000), sim.Time(3000), 0, 1, map[string]string{"k": "v"})
	r.Instant("MPI_Pready", sim.Time(3000), 0, 1, nil)
	if r.Len() != 3 { // B + E + instant
		t.Fatalf("Len = %d", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 3 {
		t.Fatalf("decoded %d events", len(evs))
	}
	if evs[0].Phase != "B" || evs[0].TimestampUS != 1.0 {
		t.Fatalf("first event %+v", evs[0])
	}
	// Events are sorted by timestamp.
	for i := 1; i < len(evs); i++ {
		if evs[i].TimestampUS < evs[i-1].TimestampUS {
			t.Fatal("events not sorted")
		}
	}
}

func TestSpanBackwardsPanics(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Fatal("backwards span did not panic")
		}
	}()
	r.Span("x", sim.Time(10), sim.Time(5), 0, 0, nil)
}
