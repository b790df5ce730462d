package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// toy shrinks a workload to a few rounds (and the sweep to a 4x4 grid on 2
// shards, the halo to a k=4 fat-tree) so every workload runs in well under
// a second.
func toy(w *workload) *workload {
	t := *w
	switch t.shape {
	case shapeP2P:
		t.warmup, t.rounds = 5, 40
	case shapeSweep:
		t.gridX, t.gridY, t.warmup, t.rounds = 4, 4, 1, 3
	case shapeHalo:
		t.gridX, t.gridY, t.topo, t.warmup, t.rounds = 4, 2, "fat-tree:k=4", 1, 4
	}
	return &t
}

// virtualMetrics are the metrics that depend only on the seed.
var virtualMetrics = []string{"round_us_p50", "tail_us_p50", "tail_us_p99"}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*outcome
			for i := range runs {
				// Only the first run pays for the traced repetitions.
				o := measure(w, plan{seed: 7, minReps: 1, layers: i == 0})
				if wr := o.result(); !wr.Correct || wr.Failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d/%d problems=%v", i, wr.Correct, wr.Failed, wr.Attempted, o.problems)
				}
				for _, d := range endToEnd {
					if _, ok := o.endToEnd[d.name]; !ok {
						t.Errorf("end-to-end metric %s missing", d.name)
					}
				}
				for _, d := range perLayer {
					if _, ok := o.perLayer[d.name]; !ok && i == 0 {
						t.Errorf("per-layer metric %s missing", d.name)
					}
				}
				runs[i] = o
			}
			for _, name := range virtualMetrics {
				if a, b := runs[0].endToEnd[name].Value, runs[1].endToEnd[name].Value; a != b {
					t.Errorf("%s differs between runs: %v vs %v", name, a, b)
				}
			}
			var sum float64
			for _, l := range cpuLayers {
				sum += runs[0].perLayer[l+".cpu_share"].Value
			}
			if n := runs[0].perLayer["sim.cpu_share"].Samples; n > 0 && math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu shares sum to %v over %d samples", sum, n)
			}
			if w.shards > 1 && runs[0].perLayer["sim.shard.tmin_hops"].Value == 0 {
				t.Errorf("sharded workload reports no shard hops")
			}
		})
	}
}

func TestWriteTrace(t *testing.T) {
	w := toy(workloads[0])
	r := runRep(w, 1, repOptions{shards: 1, traced: true})
	if r.err != nil {
		t.Fatal(r.err)
	}
	dir := t.TempDir()
	if err := writeTrace(dir, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e["name"].(string)] = true
	}
	for _, want := range []string{"round", "mpi.Barrier", "Psend.Start", "Psend.Pready", "Psend.Wait", "Precv.Start", "Precv.Wait"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, w.name+".cpu.pprof")); err != nil {
		t.Error(err)
	}
}

func TestBadStampIsCounted(t *testing.T) {
	const parts, partBytes = 8, 64
	buf := make([]byte, parts*partBytes)
	for p := 0; p < parts; p++ {
		writeStamp(buf, partBytes, 42, 3, 9, p)
	}
	if n := badStamps(buf, parts, 42, 3, 9); n != 0 {
		t.Fatalf("clean buffer: %d bad stamps", n)
	}
	buf[5*partBytes+2] ^= 0xff
	if n := badStamps(buf, parts, 42, 3, 9); n != 1 {
		t.Fatalf("one corrupted stamp: counted %d", n)
	}
	if n := badStamps(buf, parts, 42, 3, 10); n != parts {
		t.Fatalf("stamps of another round: counted %d of %d", n, parts)
	}
}

var spinSink uint64

// spin burns CPU in this package for about d. The loop touches no memory,
// so even a race-instrumented build spends its samples here.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	return x
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinSink = spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	counts, err := cpuSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, n := cpuShares(counts)
	if n < 10 {
		t.Skipf("only %d samples", n)
	}
	if shares["benchmark"] <= 0.5 {
		t.Errorf("busy loop's bucket holds %.2f of %d samples: %v", shares["benchmark"], n, shares)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := cpuSamples([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/sim.(*Engine).Run", "/x/internal/sim/sim.go", "sim"},
		{"repro/internal/sim.(*ShardSet).post", "/x/internal/sim/shard.go", "sim.shard"},
		{"repro/internal/xport/verbs.(*endpoint).PostSend", "", "xport"},
		{"repro/internal/ploggp.(*Model).OptimalTransport", "", "core"},
		{"repro/internal/trace.(*ArrivalPattern).Delays", "", "benchmark"},
		{"main.(*rep).thread", "", "benchmark"},
		{"runtime.mcall", "", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "x", better: "lower", bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster everywhere", base, shift(base, 0.8), "better"},
		{"within noise", base, shift(base, 1.02), "no-worse"},
		{"worse beyond bound", base, shift(base, 1.2), "regressed"},
		{"spread wider than bound", []float64{50, 150, 80, 120, 100}, []float64{60, 140, 90, 130, 100}, "unresolved"},
		{"deterministic and equal", []float64{5, 5, 5}, []float64{5, 5, 5}, "no-worse"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := failVerdict([]float64{0, 0}, []float64{0, 0.01}); got != "regressed" {
		t.Errorf("new failures: verdict %q, want regressed", got)
	}
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want Python's [2.75 5.5 8.25]", q)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the tables the benchmark reports from.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %q %q", i, got, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, benchmark has %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, benchmark has %+v", i, got, d)
		}
	}
}
