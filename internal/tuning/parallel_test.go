package tuning

import (
	"bytes"
	"testing"
)

// searchTable renders a Search result for byte comparison.
func searchTable(t *testing.T, cfg SearchConfig) string {
	t.Helper()
	table, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, table); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSearchParallelParity: the tuning table must be byte-identical for
// any worker count — the core guarantee of the parallel sweep layer.
func TestSearchParallelParity(t *testing.T) {
	base := SearchConfig{
		UserParts: []int{4, 16},
		Sizes:     []int{4096, 16384, 65536},
		Warmup:    1,
		Iters:     3,
	}
	serial := base
	serial.Workers = 1
	want := searchTable(t, serial)
	for _, j := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = j
		if got := searchTable(t, cfg); got != want {
			t.Errorf("Workers=%d table differs from serial:\n%s\n--- want ---\n%s", j, got, want)
		}
	}
}

// TestSearchProgressOrderedUnderParallelism: Progress must arrive from a
// single goroutine in the serial sweep's visit order even with many
// workers (documented SearchConfig.Progress contract). Appending to a
// plain slice with no locking doubles as the single-goroutine check under
// -race.
func TestSearchProgressOrderedUnderParallelism(t *testing.T) {
	type pt struct{ parts, size int }
	var got []pt
	_, err := Search(SearchConfig{
		UserParts: []int{2, 4},
		Sizes:     []int{4096, 8192, 16384},
		Warmup:    1, Iters: 1,
		Workers:  8,
		Progress: func(parts, size int) { got = append(got, pt{parts, size}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []pt{
		{2, 4096}, {2, 8192}, {2, 16384},
		{4, 4096}, {4, 8192}, {4, 16384},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d progress calls, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("progress[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSearchPointTieBreakIsLexicographic: candidates with equal mean time
// must resolve to the smallest (transport, qps). Tiny messages at tiny
// iteration counts produce ties between QP counts, so assert the invariant
// structurally: re-running the same point many times (any worker count)
// always yields the same pick.
func TestSearchPointTieBreakDeterministic(t *testing.T) {
	cfg := SearchConfig{
		UserParts: []int{8},
		Sizes:     []int{8192},
		Warmup:    1, Iters: 1,
	}
	want := searchTable(t, cfg)
	for i := 0; i < 3; i++ {
		if got := searchTable(t, cfg); got != want {
			t.Fatalf("run %d diverged:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestSearchEntriesIndependentOfOtherCounts: one search over several
// partition counts records, per count, the entries a search over that
// count alone records — what lets one search serve all of fig8's tables.
func TestSearchEntriesIndependentOfOtherCounts(t *testing.T) {
	base := SearchConfig{Sizes: []int{4096, 16384}, Warmup: 1, Iters: 3}
	var want string
	for _, parts := range []int{2, 8} {
		cfg := base
		cfg.UserParts = []int{parts}
		want += searchTable(t, cfg)
	}
	base.UserParts = []int{2, 8}
	if got := searchTable(t, base); got != want {
		t.Errorf("joint search table:\n%s\n--- per-count searches ---\n%s", got, want)
	}
}
