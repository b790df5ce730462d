package ploggp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/loggp"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

func niagaraModel() *Model { return New(loggp.NiagaraMeasured()) }

func TestCompletionTimeSinglePartition(t *testing.T) {
	p := loggp.NiagaraMeasured()
	m := New(p)
	delay := 4 * time.Millisecond
	want := delay + p.SendTime(1*mib)
	if got := m.CompletionTime(1, 1*mib, delay); got != want {
		t.Fatalf("CompletionTime(1) = %v, want delay+SendTime = %v", got, want)
	}
}

func TestCompletionTimeAddsReceiverDrain(t *testing.T) {
	p := loggp.NiagaraMeasured()
	m := New(p)
	// Difference between n and n+... the o_r multiplier must be exactly n.
	t4 := m.CompletionTime(4, 4*mib, 0)
	t8 := m.CompletionTime(8, 4*mib, 0)
	// t8 - t4 = G*(S/8 - S/4) + 4*or.
	want := p.ByteTime(4*mib/8-1) - p.ByteTime(4*mib/4-1) + 4*p.Or
	if got := t8 - t4; got != want {
		t.Fatalf("t8-t4 = %v, want %v", got, want)
	}
}

// TestTableIReproduction pins the exact Table I from the paper: the optimal
// transport partition count per aggregate message size on Niagara with the
// paper's 4 ms delay.
func TestTableIReproduction(t *testing.T) {
	m := niagaraModel()
	delay := 4 * time.Millisecond
	cases := []struct {
		bytes int
		want  int
	}{
		{64 * kib, 1},
		{128 * kib, 1},
		{256 * kib, 1}, // "<256KiB -> 1" boundary row
		{512 * kib, 2},
		{1 * mib, 2},
		{2 * mib, 4},
		{4 * mib, 4},
		{8 * mib, 8},
		{16 * mib, 8},
		{32 * mib, 16},
		{64 * mib, 16},
		{128 * mib, 32},
		{256 * mib, 32},
	}
	for _, c := range cases {
		if got := m.OptimalTransport(c.bytes, 128, delay); got != c.want {
			t.Errorf("OptimalTransport(%d KiB) = %d, want %d", c.bytes/kib, got, c.want)
		}
	}
}

func TestOptimalTransportNeverExceedsUserParts(t *testing.T) {
	m := niagaraModel()
	// The model wants 32 at 128 MiB, but the user only asked for 8.
	if got := m.OptimalTransport(128*mib, 8, 4*time.Millisecond); got != 8 {
		t.Fatalf("OptimalTransport capped = %d, want 8", got)
	}
	if got := m.OptimalTransport(128*mib, 1, 4*time.Millisecond); got != 1 {
		t.Fatalf("OptimalTransport with 1 user part = %d, want 1", got)
	}
}

func TestOptimalTransportIsPowerOfTwo(t *testing.T) {
	m := niagaraModel()
	f := func(sizeRaw uint32, partsRaw uint8) bool {
		size := int(sizeRaw%(256*mib)) + 1
		parts := int(partsRaw%128) + 1
		n := m.OptimalTransport(size, parts, 4*time.Millisecond)
		if n < 1 || n > parts {
			return false
		}
		return n&(n-1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalTransportMonotoneInSize(t *testing.T) {
	// Doubling the message size never decreases the selected count.
	m := niagaraModel()
	delay := 4 * time.Millisecond
	prev := 0
	for s := 4 * kib; s <= 512*mib; s *= 2 {
		n := m.OptimalTransport(s, 1024, delay)
		if n < prev {
			t.Fatalf("optimum decreased from %d to %d at %d bytes", prev, n, s)
		}
		prev = n
	}
}

// TestFig3Shape verifies the qualitative claims the paper makes about
// Figure 3: for small/medium messages 32 partitions are slower than 1; for
// very large messages 32 partitions are faster.
func TestFig3Shape(t *testing.T) {
	m := niagaraModel()
	delay := 4 * time.Millisecond
	smallT1 := m.CompletionTime(1, 64*kib, delay)
	smallT32 := m.CompletionTime(32, 64*kib, delay)
	if smallT32 <= smallT1 {
		t.Errorf("64KiB: T(32)=%v <= T(1)=%v; want 32 partitions slower", smallT32, smallT1)
	}
	bigT1 := m.CompletionTime(1, 256*mib, delay)
	bigT32 := m.CompletionTime(32, 256*mib, delay)
	if bigT32 >= bigT1 {
		t.Errorf("256MiB: T(32)=%v >= T(1)=%v; want 32 partitions faster", bigT32, bigT1)
	}
}

func TestSummaryTableCoalesces(t *testing.T) {
	m := niagaraModel()
	rows := m.SummaryTable(64*kib, 256*mib, 128, 4*time.Millisecond)
	if len(rows) == 0 {
		t.Fatal("empty summary table")
	}
	// Ranges must tile the sweep contiguously with increasing counts.
	prevMax, prevParts := 0, 0
	for _, r := range rows {
		if prevMax != 0 && r.MinBytes != prevMax*2 {
			t.Errorf("gap in table: prev max %d, next min %d", prevMax, r.MinBytes)
		}
		if r.Partitions <= prevParts {
			t.Errorf("partition count not strictly increasing: %+v after %d", r, prevParts)
		}
		prevMax, prevParts = r.MaxBytes, r.Partitions
	}
	// First and last rows pin Table I's endpoints.
	if rows[0].Partitions != 1 {
		t.Errorf("first row partitions = %d, want 1", rows[0].Partitions)
	}
	if rows[len(rows)-1].Partitions != 32 {
		t.Errorf("last row partitions = %d, want 32", rows[len(rows)-1].Partitions)
	}
}

func TestPipelinedVariantBindsAtLargeSizes(t *testing.T) {
	m := niagaraModel()
	delay := 4 * time.Millisecond
	// At 128 MiB the early train's wire time exceeds the 4 ms delay, so
	// the pipelined variant must exceed the ideal-early-bird estimate —
	// this is the network-limited regime of the paper's Figure 11.
	ideal := m.CompletionTime(32, 128*mib, delay)
	pipe := m.CompletionTimePipelined(32, 128*mib, delay)
	if pipe <= ideal {
		t.Errorf("pipelined %v <= ideal %v at 128MiB", pipe, ideal)
	}
	// At 1 MiB the early train finishes well within the delay, so both
	// variants agree on the laggard's critical path.
	ideal = m.CompletionTime(2, 1*mib, delay)
	pipe = m.CompletionTimePipelined(2, 1*mib, delay)
	if pipe != ideal {
		t.Errorf("pipelined %v != ideal %v at 1MiB", pipe, ideal)
	}
}

func TestManyBeforeOnePatternMatchesDefaultModel(t *testing.T) {
	// Many partitions early, one late: while the early train's wire time
	// fits inside the delay (up to 8 MiB over at most 32 partitions at
	// 4 ms), the pipelined model and the ideal early-bird model agree
	// exactly; beyond that the pipelined variant is an upper bound.
	m := niagaraModel()
	delay := 4 * time.Millisecond
	fits := func(sizeRaw uint32, nRaw uint8) bool {
		size := int(sizeRaw%(8*mib)) + 1
		n := 1 << (nRaw % 6)
		return m.CompletionTimePipelined(n, size, delay) == m.CompletionTime(n, size, delay)
	}
	if err := quick.Check(fits, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if m.CompletionTimePipelined(32, 256*mib, delay) < m.CompletionTime(32, 256*mib, delay) {
		t.Fatal("pipelined model below the ideal bound")
	}
}

func TestTableLookupPerSize(t *testing.T) {
	tb := loggp.NewTable()
	slow := loggp.NiagaraMeasured()
	slow.G = 1.0
	fast := loggp.NiagaraMeasured()
	fast.G = 0.01
	tb.Set(1*kib, slow)
	tb.Set(1*mib, fast)
	m := NewWithTable(tb, loggp.NiagaraMeasured())
	if got := m.ParamsFor(2 * kib); got != slow {
		t.Errorf("ParamsFor(2KiB) = %+v, want slow set", got)
	}
	if got := m.ParamsFor(4 * mib); got != fast {
		t.Errorf("ParamsFor(4MiB) = %+v, want fast set", got)
	}
}

func TestParamsForFallsBackWithoutTable(t *testing.T) {
	m := niagaraModel()
	if got := m.ParamsFor(12345); got != loggp.NiagaraMeasured() {
		t.Fatalf("ParamsFor fallback = %+v", got)
	}
}

func TestCompletionTimePanicsOnBadInput(t *testing.T) {
	m := niagaraModel()
	for name, fn := range map[string]func(){
		"zero size":  func() { m.CompletionTime(1, 0, 0) },
		"zero parts": func() { m.CompletionTime(0, 1024, 0) },
		"bad range":  func() { m.SummaryTable(0, 10, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCompletionTimeDelayIsAdditive(t *testing.T) {
	m := niagaraModel()
	f := func(sizeRaw uint32, nRaw, dRaw uint8) bool {
		size := int(sizeRaw%mib) + 1
		n := 1 << (nRaw % 6)
		d1 := time.Duration(dRaw) * time.Microsecond
		base := m.CompletionTime(n, size, 0)
		return m.CompletionTime(n, size, d1) == base+d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
