package tuning

import (
	"testing"

	"repro/internal/core"
)

func TestCompareStrategiesAgainstTunedTable(t *testing.T) {
	table, err := Search(SearchConfig{
		UserParts: []int{16},
		Sizes:     []int{64 << 10, 256 << 10},
		Warmup:    1,
		Iters:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CompareStrategies(table, CompareConfig{Warmup: 12, Iters: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != table.Len() {
		t.Fatalf("got %d rows, want one per table entry (%d)", len(rows), table.Len())
	}
	for i, r := range rows {
		if r.TunedNs <= 0 || r.AdaptiveNs <= 0 || r.Ratio <= 0 {
			t.Errorf("row %d: unmeasured point %+v", i, r)
		}
		t.Logf("parts=%d size=%d tuned=%dns adaptive=%dns ratio=%.3f switches=%d",
			r.UserParts, r.Bytes, r.TunedNs, r.AdaptiveNs, r.Ratio, r.Switches)
	}
	// Rows follow the table's deterministic iteration order.
	want := []int{64 << 10, 256 << 10}
	for i, r := range rows {
		if r.Bytes != want[i] {
			t.Errorf("row %d: bytes %d, want %d", i, r.Bytes, want[i])
		}
	}
	if _, err := CompareStrategies(core.NewTuningTable(), CompareConfig{}); err == nil {
		t.Error("CompareStrategies accepted an empty table")
	}
}
