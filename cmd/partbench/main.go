// Command partbench regenerates the paper's tables and figures.
//
// Usage:
//
//	partbench -experiment fig8            # one experiment, full scale
//	partbench -experiment all -quick      # smoke-run everything
//	partbench -list                       # enumerate experiments
//	partbench -experiment fig9 -csv out/  # also write CSV per table
//	partbench -experiment fig8 -j 8       # sweep on 8 workers
//	partbench -experiment fig8 -shards 4  # run sharded (same output)
//	partbench -experiment fig8 -cpuprofile cpu.pprof -memprofile mem.pprof
//	partbench -strategy adaptive -pattern straggler          # one probe, telemetry printed
//	partbench -experiment fig6 -quick -topo fat-tree:k=8     # run over a multi-switch fabric
//
// Each experiment prints the rows/series of the corresponding figure or
// table of "A Dynamic Network-Native MPI Partitioned Aggregation Over
// InfiniBand Verbs" (CLUSTER 2023); see EXPERIMENTS.md for the
// paper-versus-measured comparison.
//
// Drivers fan their independent simulation runs across -j workers
// (default: all cores); output is byte-identical for any -j. Performance
// is measured by the repository benchmark (bash benchmark/run.sh), not by
// this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the command behind main. It returns the exit status instead of
// calling os.Exit, so the deferred profile writers run on every path out,
// a failed experiment included.
func run(args []string) int {
	fs := flag.NewFlagSet("partbench", flag.ExitOnError)
	exp := fs.String("experiment", "", "experiment id (see -list), or 'all'")
	quick := fs.Bool("quick", false, "reduced sizes and iteration counts")
	list := fs.Bool("list", false, "list experiments and exit")
	verbose := fs.Bool("v", false, "print progress while running")
	csvDir := fs.String("csv", "", "directory to also write one CSV per table")
	jobs := fs.Int("j", 0, "parallel sweep workers (0 = all cores, 1 = serial)")
	strategy := fs.String("strategy", "", "run one point-to-point probe under this strategy (baseline, tuning-table, ploggp, timer-ploggp, adaptive) and print its result")
	pattern := fs.String("pattern", "straggler", "with -strategy: synthetic Pready arrival pattern (uniform, bursty, zipf, straggler)")
	shards := fs.Int("shards", 0, "conservative-PDES shard count per simulation (0 or 1 = serial; output is identical)")
	topo := fs.String("topo", "", "fabric topology spec for every benchmark run (single-link, two-level:rack=8, fat-tree:k=8, dragonfly:groups=9,routers=4,hosts=2)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "partbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "partbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "partbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "partbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *topo != "" {
		if _, err := fabric.ParseTopology(*topo); err != nil {
			fmt.Fprintf(os.Stderr, "partbench: -topo: %v\n", err)
			return 2
		}
	}

	if *strategy != "" {
		if err := runProbe(*strategy, *pattern, *topo, *shards, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "partbench: probe: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		writeList(os.Stdout)
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "partbench: -experiment required (or -list); e.g. -experiment fig8")
		return 2
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		if _, ok := experiments.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "partbench: unknown experiment %q (try -list)\n", name)
			return 2
		}
	}
	cfg := experiments.Config{Quick: *quick, Jobs: *jobs, Shards: *shards, Topo: *topo}
	if *verbose {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	if err := runSuite(names, cfg, os.Stdout, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "partbench: %v\n", err)
		return 1
	}
	return 0
}

// writeList prints one line per experiment, its id then its description,
// with every description starting in the same column.
func writeList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	for _, name := range experiments.Names() {
		desc, _ := experiments.Describe(name)
		fmt.Fprintf(tw, "%s\t%s\n", name, desc)
	}
	tw.Flush()
}

// runSuite executes the named experiments in order, rendering tables as
// text to w (and CSVs under csvDir when non-empty).
func runSuite(names []string, cfg experiments.Config, w io.Writer, csvDir string) error {
	for _, name := range names {
		run, _ := experiments.Lookup(name)
		desc, _ := experiments.Describe(name)
		fmt.Fprintf(w, "# %s: %s\n", name, desc)
		start := time.Now()
		tables, err := run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for i, tb := range tables {
			if err := tb.WriteText(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if csvDir != "" {
				if err := writeCSV(csvDir, name, i, tb); err != nil {
					return err
				}
			}
		}
		// Wall time goes to stderr so the rendered tables stay
		// byte-comparable across passes.
		fmt.Fprintf(os.Stderr, "# %s done in %v (wall)\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runProbe runs one point-to-point partitioned benchmark under the named
// strategy and arrival pattern and prints its mean round latency plus —
// for the adaptive strategy — the decision telemetry. A quick way to watch
// the switcher act without running a whole experiment grid.
func runProbe(strategy, pattern, topo string, shards int, quick bool) error {
	strat, err := core.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	kind, err := trace.ParsePatternKind(pattern)
	if err != nil {
		return err
	}
	cfg := bench.GridConfig{
		Pattern: bench.P2P,
		Threads: 16,
		Bytes:   256 << 10,
		Compute: 20 * time.Microsecond,
		Warmup:  16,
		Iters:   32,
		Opts:    core.Options{Strategy: strat},
		Shards:  shards,
		Topo:    topo,
		Arrival: &trace.ArrivalPattern{
			Kind:   kind,
			Seed:   1,
			Spread: 500 * time.Microsecond,
		},
	}
	if strat == core.StrategyTuningTable {
		return fmt.Errorf("tuning-table probe needs a table; use cmd/tuningsearch and the experiments instead")
	}
	if quick {
		cfg.Warmup, cfg.Iters = 8, 8
	}
	res, err := bench.RunGrid(cfg)
	if err != nil {
		return err
	}
	rounds := int64(cfg.Warmup + cfg.Iters)
	fmt.Printf("strategy=%s pattern=%s parts=%d bytes=%d\n", strat, kind, cfg.Threads, cfg.Bytes)
	fmt.Printf("mean round latency: %v\n", res.MeanIterTime())
	fmt.Printf("fabric messages/round: %d\n", res.FabricMessages/rounds)
	if s := res.Adaptive[0][0]; s != nil {
		fmt.Printf("adaptive: rounds=%d arrivals=%d switches=%d final=%s/t%d delta=%v regret=%dns\n",
			s.Rounds, s.RecordedArrivals, len(s.Switches)-1, s.Mode, s.Transport,
			time.Duration(s.Delta), s.RegretNs)
		for _, sw := range s.Switches {
			fmt.Printf("  round %3d -> %s/t%d delta=%v predicted=%v\n",
				sw.Round, sw.Mode, sw.Transport, time.Duration(sw.Delta), time.Duration(sw.Predicted))
		}
	}
	return nil
}

func writeCSV(dir, name string, idx int, tb *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := name
	if idx > 0 {
		file = fmt.Sprintf("%s-%d", name, idx)
	}
	path := filepath.Join(dir, strings.ReplaceAll(file, "/", "_")+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.WriteCSV(f)
}
