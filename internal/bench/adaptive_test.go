package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// smokeGrid is the small (pattern × size) grid the guard tests measure:
// one size per pattern, sized to finish in seconds rather than the full
// three-size grid of the ablation-adaptive experiment.
func smokeGrid() AdaptiveGridConfig {
	return AdaptiveGridConfig{
		Parts:   16,
		Sizes:   []int{256 << 10},
		Spread:  500 * time.Microsecond,
		Seed:    7,
		Warmup:  16,
		Iters:   24,
		Compute: 20 * time.Microsecond,
	}
}

// TestAdaptiveGuardOnSmokeGrid is the Hunold-style acceptance check: on
// every smoke-grid point the adaptive strategy must stay within
// AdaptiveGuardBound of the best static design post-warm-up, and strictly
// beat the worst static design on the skewed patterns.
func TestAdaptiveGuardOnSmokeGrid(t *testing.T) {
	points, err := RunAdaptiveGrid(smokeGrid())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(trace.PatternKinds()); len(points) != want {
		t.Fatalf("got %d grid points, want %d", len(points), want)
	}
	for _, p := range points {
		t.Logf("%-10s %8dB  base=%dns ploggp=%dns timer=%dns adaptive=%dns  switches=%d final=%s/t%d δ=%dns",
			p.Pattern, p.Bytes, p.BaselineNs, p.PLogGPNs, p.TimerNs, p.AdaptiveNs,
			p.Switches, p.FinalMode, p.FinalTransport, p.FinalDeltaNs)
		if p.RecordedArrivals == 0 {
			t.Errorf("%s: adaptive run recorded no arrivals", p.Pattern)
		}
	}
	for _, v := range CheckAdaptiveGuard(points, AdaptiveGuardBound) {
		t.Error(v)
	}
}

// TestAdaptiveGridOrderAndTelemetry checks grid ordering (patterns outer,
// sizes inner) and that best/worst summaries are consistent.
func TestAdaptiveGridOrderAndTelemetry(t *testing.T) {
	cfg := smokeGrid()
	cfg.Sizes = []int{64 << 10, 256 << 10}
	cfg.Patterns = []trace.PatternKind{trace.PatternUniform, trace.PatternStraggler}
	cfg.Iters = 8
	cfg.Warmup = 12
	points, err := RunAdaptiveGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []struct {
		pattern string
		bytes   int
	}{
		{"uniform", 64 << 10}, {"uniform", 256 << 10},
		{"straggler", 64 << 10}, {"straggler", 256 << 10},
	}
	if len(points) != len(wantOrder) {
		t.Fatalf("got %d points, want %d", len(points), len(wantOrder))
	}
	for i, p := range points {
		if p.Pattern != wantOrder[i].pattern || p.Bytes != wantOrder[i].bytes {
			t.Errorf("point %d: got %s/%d, want %s/%d", i, p.Pattern, p.Bytes, wantOrder[i].pattern, wantOrder[i].bytes)
		}
		if p.BestStaticNs > p.WorstStaticNs || p.BestStaticNs <= 0 {
			t.Errorf("point %d: inconsistent best %d / worst %d", i, p.BestStaticNs, p.WorstStaticNs)
		}
		for _, ns := range []int64{p.BaselineNs, p.PLogGPNs, p.TimerNs} {
			if ns < p.BestStaticNs || ns > p.WorstStaticNs {
				t.Errorf("point %d: static %d outside [best %d, worst %d]", i, ns, p.BestStaticNs, p.WorstStaticNs)
			}
		}
	}
}

// adaptiveP2PConfig is a straggler-pattern point-to-point run under
// StrategyAdaptive, sized so the switcher acts during the run.
func adaptiveP2PConfig() P2PConfig {
	return P2PConfig{
		Parts:   16,
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
	cfg := adaptiveP2PConfig()
	serial, err := RunP2P(cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if serial.Adaptive == nil {
		t.Fatal("serial run reported no adaptive telemetry")
	}
	if len(serial.Adaptive.Switches) < 2 {
		t.Fatalf("expected the straggler pattern to force a switch, got %d entries", len(serial.Adaptive.Switches))
	}
	cfg.Shards = 2
	sharded, err := RunP2P(cfg)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if sharded.Adaptive == nil {
		t.Fatal("sharded run reported no adaptive telemetry")
	}
	if !serial.Adaptive.Equal(*sharded.Adaptive) {
		t.Errorf("adaptive telemetry diverged:\nserial:  %+v\nsharded: %+v", serial.Adaptive, sharded.Adaptive)
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
// straggler arrival pattern — eight ranks whose adaptive senders must all
// make identical decisions regardless of shard and worker counts. The
// observation window is kept below the straggler's 8-round rotation period
// so the windowed histogram retains a visible tail.
func adaptiveSweepConfig() SweepConfig {
	return SweepConfig{
		GridX:   4,
		GridY:   2,
		Threads: 8,
		Bytes:   256 << 10,
		Compute: 20 * time.Microsecond,
		Warmup:  2,
		Iters:   16,
		Opts: core.Options{
			Strategy:       core.StrategyAdaptive,
			QPs:            2,
			AdaptiveWindow: 4,
		},
		Arrival: &trace.ArrivalPattern{
			Kind:   trace.PatternStraggler,
			Seed:   5,
			Spread: 2 * time.Millisecond,
		},
	}
}

// compareSweepRuns asserts two sweep results are byte-identical: iteration
// times, per-rank adaptive telemetry, and receive-buffer digests.
func compareSweepRuns(t *testing.T, label string, want, got SweepResult) {
	t.Helper()
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
	for _, dir := range []struct {
		name      string
		want, got []*core.AdaptiveStats
	}{
		{"east", want.AdaptiveEast, got.AdaptiveEast},
		{"south", want.AdaptiveSouth, got.AdaptiveSouth},
	} {
		for i := range dir.want {
			w, g := dir.want[i], dir.got[i]
			if (w == nil) != (g == nil) {
				t.Errorf("%s: rank %d %s: telemetry presence differs", label, i, dir.name)
				continue
			}
			if w != nil && !w.Equal(*g) {
				t.Errorf("%s: rank %d %s: telemetry diverged:\nwant: %+v\ngot:  %+v", label, i, dir.name, w, g)
			}
		}
	}
}

// TestAdaptiveShardedSweepMatchesSerial runs the adaptive wavefront at 2,
// 4, and 8 shards and requires results identical to the serial run.
func TestAdaptiveShardedSweepMatchesSerial(t *testing.T) {
	base := adaptiveSweepConfig()
	serial, err := RunSweep(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	switched := 0
	for _, s := range append(append([]*core.AdaptiveStats{}, serial.AdaptiveEast...), serial.AdaptiveSouth...) {
		if s != nil && len(s.Switches) > 1 {
			switched++
		}
	}
	if switched == 0 {
		t.Fatal("no rank switched designs; differential would be vacuous")
	}
	for _, shards := range []int{2, 4, 8} {
		cfg := base
		cfg.Shards = shards
		sharded, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		compareSweepRuns(t, "shards="+string(rune('0'+shards)), serial, sharded)
	}
}

// TestAdaptiveSweepWorkerCountInvariant runs the sharded adaptive wavefront
// under different worker-fleet sizes; results must not depend on the count.
func TestAdaptiveSweepWorkerCountInvariant(t *testing.T) {
	base := adaptiveSweepConfig()
	base.Shards = 4
	base.Workers = 1
	want, err := RunSweep(base)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Workers = workers
		got, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		compareSweepRuns(t, "workers="+string(rune('0'+workers)), want, got)
	}
}
