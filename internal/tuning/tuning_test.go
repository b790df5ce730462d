package tuning

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
)

func TestSearchFindsAggregationForMediumMessages(t *testing.T) {
	// At 128 KiB with 16 partitions, aggregation (transport < 16) must
	// win the exhaustive search — the paper's core observation.
	table, err := Search(SearchConfig{
		UserParts: []int{16},
		Sizes:     []int{128 << 10},
		Warmup:    1,
		Iters:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := table.Lookup(16, 128<<10)
	if !ok {
		t.Fatal("no entry for searched point")
	}
	if v.Transport >= 16 {
		t.Errorf("search picked %d transport partitions at 128KiB; expected aggregation", v.Transport)
	}
	if v.QPs < 1 || v.QPs > v.Transport {
		t.Errorf("bad QP pick %+v", v)
	}
}

func TestSearchSkipsUnrealizablePoints(t *testing.T) {
	table, err := Search(SearchConfig{
		UserParts: []int{16},
		Sizes:     []int{100}, // not divisible by 16
		Warmup:    1, Iters: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 0 {
		t.Fatalf("unrealizable point produced %d entries", table.Len())
	}
}

// TestCandidatesDivide: with 24 partitions only the power-of-two
// transport counts that divide 24 are candidates; core would run 16 as
// 8, and Pick would record 16.
func TestCandidatesDivide(t *testing.T) {
	cands, err := Candidates(SearchConfig{UserParts: []int{24}, Sizes: []int{24 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	for _, c := range cands {
		got = append(got, [2]int{c.Opts.TransportParts, c.Opts.QPs})
	}
	want := [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}, {8, 1}, {8, 2}, {8, 4}, {8, 8}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("candidates (transport, QPs) = %v, want %v", got, want)
	}
}

func TestSearchProgressCallback(t *testing.T) {
	var visited int
	_, err := Search(SearchConfig{
		UserParts: []int{2},
		Sizes:     []int{4096, 8192},
		Warmup:    1, Iters: 1,
		Progress: func(parts, size int) { visited++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 2 {
		t.Fatalf("visited %d points, want 2", visited)
	}
}

func TestSearchValidation(t *testing.T) {
	bad := []SearchConfig{
		{},
		{UserParts: []int{0}, Sizes: []int{4096}},
		{UserParts: []int{4}, Sizes: []int{0}},
	}
	for i, c := range bad {
		if _, err := Search(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestTableSerializationRoundTrip: entries serialize as one
// "userParts bytes transport qps" line each, in key order, as
// tuningsearch prints them.
func TestTableSerializationRoundTrip(t *testing.T) {
	table := core.NewTuningTable()
	table.Set(core.TuningKey{UserParts: 32, Bytes: 65536}, core.TuningValue{Transport: 8, QPs: 8})
	table.Set(core.TuningKey{UserParts: 16, Bytes: 4096}, core.TuningValue{Transport: 4, QPs: 2})
	var buf bytes.Buffer
	if err := WriteTable(&buf, table); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "16 4096 4 2\n32 65536 8 8\n"; got != want {
		t.Fatalf("WriteTable wrote %q, want %q", got, want)
	}
}
