package netgauge

import (
	"testing"

	"repro/internal/fabric"
)

func TestRunProducesPlausibleParams(t *testing.T) {
	p, err := Run(Config{Warmup: 2, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The G fit runs over rendezvous transfers capped by the per-QP rate,
	// so it must land between the per-QP and pure-wire costs, inflated by
	// at most ~50% of protocol overhead amortized over the slope window.
	if p.G < fabric.LinkByteTime || p.G > fabric.PerQPByteTime*1.5 {
		t.Errorf("measured G = %.4f ns/B outside plausible [%v, %v]",
			p.G, fabric.LinkByteTime, fabric.PerQPByteTime*1.5)
	}
	// Measured-through-MPI latency includes software costs: strictly
	// above the wire latency.
	if p.L+p.Os+p.Or <= fabric.WireLatency {
		t.Errorf("measured L+os+or = %v at or below wire latency", p.L+p.Os+p.Or)
	}
	if p.Os <= 0 {
		t.Errorf("sender overhead %v not positive (the send call costs CPU)", p.Os)
	}
}

func TestMeasureTable(t *testing.T) {
	tb, err := MeasureTable(Config{Warmup: 1, Iters: 3}, []int{64 << 10, 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("table has %d entries", tb.Len())
	}
	for _, s := range tb.Sizes() {
		p, _ := tb.Lookup(s)
		if err := p.Validate(); err != nil {
			t.Errorf("size %d: %v", s, err)
		}
	}
	if _, err := MeasureTable(Config{}, []int{0}); err == nil {
		t.Error("size 0 accepted")
	}
}
