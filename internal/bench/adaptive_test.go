package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// adaptiveP2P is a straggler-pattern point-to-point run under
// StrategyAdaptive, sized so the switcher acts during the run.
func adaptiveP2P() GridConfig {
	return GridConfig{
		Pattern: P2P,
		Threads: 16,
		Bytes:   256 << 10,
		Compute: 20 * time.Microsecond,
		Warmup:  4,
		Iters:   20,
		Opts:    core.Options{Strategy: core.StrategyAdaptive, QPs: 2},
		Arrival: &trace.ArrivalPattern{
			Kind:   trace.PatternStraggler,
			Seed:   11,
			Spread: 2 * time.Millisecond,
		},
	}
}

// TestAdaptiveShardedP2PMatchesSerial is the adaptive differential: the
// switch sequence, telemetry, and every per-iteration observation must be
// identical serial vs sharded — the observer reads only local-rank event
// times, so conservative-PDES sharding must not perturb a single decision.
func TestAdaptiveShardedP2PMatchesSerial(t *testing.T) {
	cfg := adaptiveP2P()
	serial, err := RunGrid(cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	want := serial.Adaptive[0][0]
	if want == nil {
		t.Fatal("serial run reported no adaptive telemetry")
	}
	if len(want.Switches) < 2 {
		t.Fatalf("expected the straggler pattern to force a switch, got %d entries", len(want.Switches))
	}
	sharded, _, err := runGrid(cfg, 2)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	got := sharded.Adaptive[0][0]
	if got == nil {
		t.Fatal("sharded run reported no adaptive telemetry")
	}
	if !want.Equal(*got) {
		t.Errorf("adaptive telemetry diverged:\nserial:  %+v\nsharded: %+v", want, got)
	}
	if serial.FabricMessages != sharded.FabricMessages {
		t.Errorf("fabric messages serial %d != sharded %d", serial.FabricMessages, sharded.FabricMessages)
	}
	for i := range serial.IterTimes {
		if serial.IterTimes[i] != sharded.IterTimes[i] {
			t.Errorf("iter %d: IterTimes serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
		}
	}
}

// adaptiveSweepConfig is a 4x2 wavefront under StrategyAdaptive with a
// bursty arrival pattern — eight ranks whose adaptive senders must all
// make identical decisions regardless of the shard count. The
// bursts leave a tail in the switcher's 8-round observation window, and 32
// rounds give it time to act on it.
func adaptiveSweepConfig() GridConfig {
	return GridConfig{
		GridX:   4,
		GridY:   2,
		Threads: 8,
		Bytes:   256 << 10,
		Compute: 20 * time.Microsecond,
		Warmup:  2,
		Iters:   32,
		Opts: core.Options{
			Strategy: core.StrategyAdaptive,
			QPs:      2,
		},
		Arrival: &trace.ArrivalPattern{
			Kind:   trace.PatternBursty,
			Seed:   5,
			Spread: 50 * time.Microsecond,
		},
	}
}

// compareGridRuns asserts two grid results are byte-identical: iteration
// times, receive-buffer digests, and every send's adaptive telemetry.
func compareGridRuns(t *testing.T, label string, want, got GridResult) {
	t.Helper()
	if len(want.IterTimes) != len(got.IterTimes) || len(want.Adaptive) != len(got.Adaptive) {
		t.Fatalf("%s: shapes differ: %d/%d iterations, %d/%d ranks", label,
			len(want.IterTimes), len(got.IterTimes), len(want.Adaptive), len(got.Adaptive))
	}
	for i := range want.IterTimes {
		if want.IterTimes[i] != got.IterTimes[i] {
			t.Errorf("%s: iter %d: %v != %v", label, i, want.IterTimes[i], got.IterTimes[i])
		}
	}
	for i := range want.BufferSums {
		if want.BufferSums[i] != got.BufferSums[i] {
			t.Errorf("%s: rank %d: buffer digest %x != %x", label, i, want.BufferSums[i], got.BufferSums[i])
		}
	}
	for r, sends := range want.Adaptive {
		if len(sends) != len(got.Adaptive[r]) {
			t.Errorf("%s: rank %d: %d sends != %d", label, r, len(sends), len(got.Adaptive[r]))
			continue
		}
		for i, w := range sends {
			g := got.Adaptive[r][i]
			if (w == nil) != (g == nil) {
				t.Errorf("%s: rank %d send %d: telemetry presence differs", label, r, i)
				continue
			}
			if w != nil && !w.Equal(*g) {
				t.Errorf("%s: rank %d send %d: telemetry diverged:\nwant: %+v\ngot:  %+v", label, r, i, w, g)
			}
		}
	}
}

// TestAdaptiveShardedSweepMatchesSerial runs the adaptive wavefront at 2,
// 4, and 8 shards and requires results identical to the serial run.
func TestAdaptiveShardedSweepMatchesSerial(t *testing.T) {
	base := adaptiveSweepConfig()
	serial, err := RunGrid(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	switched := 0
	for _, sends := range serial.Adaptive {
		for _, s := range sends {
			if s != nil && len(s.Switches) > 1 {
				switched++
			}
		}
	}
	if switched == 0 {
		t.Fatal("no rank switched designs; differential would be vacuous")
	}
	for _, shards := range []int{2, 4, 8} {
		sharded, _, err := runGrid(base, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		compareGridRuns(t, "shards="+string(rune('0'+shards)), serial, sharded)
	}
}
