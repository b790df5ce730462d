// Command benchmark is the repository's benchmark. It drives four paper
// workloads through the public functions of the mpi, core, cluster, fabric
// and sim packages, measures end-to-end metrics with tracing off, and
// per-layer metrics from a separate traced repetition. README.md describes
// the workloads, the metrics and their bounds.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-tracedir DIR] [-out FILE]
//	go run . -workload NAME -seed N -seconds S -trace 0|1
//	go run . -compare [-out FILE] A.json... [-- B.json...]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// meta describes the machine and the code a result was measured on.
type meta struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the measurements
	Go         string `json:"go"`
	Commit     string `json:"commit,omitempty"`
	CoreHash   string `json:"core_hash,omitempty"`
	Seed       uint64 `json:"seed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 6, "wall seconds of untraced repetitions per workload")
	traceMode := fs.Int("trace", -1, "report one metric set: 0 the end-to-end metrics, 1 the per-layer metrics; the last output line is a JSON report")
	traceDir := fs.String("tracedir", "", "write each traced repetition's <workload>.trace.json and <workload>.cpu.pprof to this directory")
	out := fs.String("out", "", "write the results (with -compare, the comparison) to this JSON file")
	cmp := fs.Bool("compare", false, "summarise result files, and judge a second set against the first: -compare [-out FILE] A.json... [-- B.json...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(fs.Args(), *out, stdout, stderr)
	}
	if fs.NArg() > 0 || *traceMode < -1 || *traceMode > 1 || *seconds < 0 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		selected = []*workload{w}
	} else if *traceMode >= 0 {
		fmt.Fprintln(stderr, "-trace needs -workload")
		return 2
	}

	res := resultFile{Meta: currentMeta(*seed)}
	correct := true
	for _, w := range selected {
		pl := plan{seed: *seed, seconds: *seconds, minReps: 3, layers: *traceMode != 0}
		if *traceMode == 1 {
			// The per-layer report needs only a baseline for the tracing
			// overhead and the GOMAXPROCS = nproc ratio from its untraced
			// runs.
			pl.seconds, pl.minReps = pl.seconds/2, 1
		}
		o := measure(w, pl)
		printOutcome(stdout, o, *traceMode)
		if *traceDir != "" && o.traced != nil {
			if err := writeTrace(*traceDir, o.traced); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		wr := o.result()
		correct = correct && wr.Correct
		res.Workloads = append(res.Workloads, wr)
		if *traceMode >= 0 {
			report(stdout, wr, *traceMode)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// result converts an outcome to its result-file form.
func (o *outcome) result() workloadResult {
	return workloadResult{
		Name:      o.w.name,
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.endToEnd != nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Problems:  o.problems,
		EndToEnd:  withUnits(o.endToEnd, endToEnd),
		PerLayer:  withUnits(o.perLayer, perLayer),
	}
}

// withUnits fills in each metric's unit from its definition.
func withUnits(vs map[string]value, defs []metricDef) map[string]value {
	if vs == nil {
		return nil
	}
	for _, d := range defs {
		if v, ok := vs[d.name]; ok {
			v.Unit = d.unit
			vs[d.name] = v
		}
	}
	return vs
}

// printOutcome prints every metric of the selected set by name, with unit
// and sample count (mode -1 prints both sets).
func printOutcome(w io.Writer, o *outcome, mode int) {
	wr := o.result()
	fmt.Fprintf(w, "== %s: %d repetitions, %d measured rounds attempted, %d failed\n", o.w.name, o.reps, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	line := func(name, unit string, v value, ok bool) {
		if ok {
			fmt.Fprintf(w, "   %-38s %16.8g %-6s n=%d\n", name, v.Value, unit, v.Samples)
		} else {
			fmt.Fprintf(w, "   %-38s %16s %-6s\n", name, "missing", unit)
		}
	}
	if mode != 1 {
		for _, d := range endToEnd {
			v, ok := wr.EndToEnd[d.name]
			line(d.name, d.unit, v, ok)
		}
		frac := 0.0
		if o.attempted > 0 {
			frac = float64(o.failed) / float64(o.attempted)
		}
		line(failFrac.name, failFrac.unit, value{Value: frac, Samples: o.attempted}, true)
	}
	if mode != 0 {
		for _, d := range perLayer {
			v, ok := wr.PerLayer[d.name]
			line(d.name, d.unit, v, ok)
		}
	}
}

// report prints the single-line JSON report: the end-to-end metrics for
// mode 0, the per-layer metrics for mode 1.
func report(w io.Writer, wr workloadResult, mode int) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := wr.EndToEnd
	if mode == 1 {
		src = wr.PerLayer
	}
	ms := map[string]metric{}
	for k, v := range src {
		ms[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, ms})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

// currentMeta records the machine, the toolchain and the code version.
func currentMeta(seed uint64) meta {
	m := meta{Nproc: runtime.NumCPU(), GOMAXPROCS: measureProcs, Go: runtime.Version(), Seed: seed, CoreHash: coreHash()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "" {
			m.Commit += "+dirty"
		}
	}
	return m
}

// coreHash fingerprints the internal/core sources the way the Makefile's
// CORE_HASH does (first 16 hex digits of the SHA-256 of the concatenated
// files), looking in the working directory and its parent.
func coreHash() string {
	for _, root := range []string{".", ".."} {
		files, _ := filepath.Glob(filepath.Join(root, "internal", "core", "*.go"))
		if len(files) == 0 {
			continue
		}
		sort.Strings(files)
		h := sha256.New()
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return ""
			}
			h.Write(b)
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	return ""
}
