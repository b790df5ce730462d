// Package experiments holds one plan per table and figure of the paper's
// evaluation (Section III Figure 3, Table I, and Section V Figures 6-14),
// plus the extension exhibits. A plan is data: the benchmark runs the
// experiment needs, each a bench.GridConfig running the same workload the
// paper ran scaled onto the simulated cluster, the tuning search those
// runs read, if any, and a render that builds the rows/series the figure
// plots from the runs' results, so the reproduction's shape can be
// compared against the paper's point by point (see EXPERIMENTS.md). Run
// executes any set of plans on one job pool.
//
// Quick mode shrinks sizes and iteration counts for tests and smoke runs;
// full mode follows the paper's protocol (10 warm-up + 100 measured
// iterations point-to-point, 3 + 10 for the sweep).
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/loggp"
	"repro/internal/ploggp"
	"repro/internal/stats"
	"repro/internal/tuning"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks the sweep for smoke tests.
	Quick bool
	// Progress, if non-nil, receives one line per collected job. It is
	// always invoked from the goroutine calling Run (never from pool
	// workers), so it needs no locking.
	Progress func(format string, args ...any)
	// Jobs bounds how many independent simulation runs Run executes
	// concurrently. Every run is a self-contained deterministic
	// simulation, so tables are byte-identical for any value. Zero or
	// negative selects GOMAXPROCS; 1 forces the serial path.
	Jobs int
	// Topo selects the fabric topology by spec for every benchmark run,
	// the tuning-search candidates included ("single-link",
	// "fat-tree:k=8", ...; see fabric.ParseTopology). Empty keeps the
	// default single-link fabric — byte-identical to "single-link" by
	// construction.
	Topo string
}

// plan is one experiment as data: the benchmark jobs it needs, the
// tuning search those jobs read, if any, and the render that builds its
// tables from the jobs' results, in job order.
type plan struct {
	jobs []bench.GridConfig
	// search, if non-nil, runs before any job, and Run records the
	// table it finds in table, which the jobs' tuning-table options point
	// at.
	search *tuning.SearchConfig
	table  *core.TuningTable
	render func(res []bench.GridResult) []*stats.Table
}

// concat joins plans into one: their jobs run in order, and each renders
// its own share of the results.
func concat(ps ...plan) plan {
	var out plan
	for _, p := range ps {
		out.jobs = append(out.jobs, p.jobs...)
	}
	out.render = func(res []bench.GridResult) []*stats.Table {
		var tables []*stats.Table
		for _, p := range ps {
			tables = append(tables, p.render(res[:len(p.jobs)])...)
			res = res[len(p.jobs):]
		}
		return tables
	}
	return out
}

// registry lists the experiments in paper order.
var registry = []struct {
	Name string
	Desc string
	plan func(Config) plan
}{
	{"fig3", "PLogGP modelled completion time vs message size per partition count (4 ms delay)", fig3},
	{"table1", "Optimal transport partitions per aggregate message size (PLogGP model)", table1},
	{"fig6", "Overhead benchmark, 32 user partitions: transport partition sweep (2 QPs)", fig6},
	{"fig7", "Overhead benchmark, 16 user/transport partitions: QP sweep", fig7},
	{"fig8", "Overhead benchmark: tuning table vs PLogGP aggregator (4/32/128 partitions)", fig8},
	{"fig9", "Perceived bandwidth: baseline vs PLogGP vs Timer-PLogGP (100 ms, 4 % noise)", fig9},
	{"fig10", "Arrival-pattern profile, 8 MiB, 32 partitions", fig10},
	{"fig11", "Arrival-pattern profile, 128 MiB, 32 partitions", fig11},
	{"fig12", "Estimated minimum delta vs message size per partition count", fig12},
	{"fig13", "Perceived bandwidth around the minimum delta (10/35/100 us), 32 partitions", fig13},
	{"fig14", "Sweep3D communication speedup at 1024 cores (16 threads x 64 nodes)", fig14},
	{"ablation-model", "Ablation: PLogGP ideal vs pipelined model vs simulated completion", ablationModel},
	{"halo", "Extension: halo-exchange communication speedup (the suite's other pattern)", halo},
	{"ablation-adaptive", "Ablation: adaptive strategy vs each static design across arrival patterns", ablationAdaptive},
	{"compare-strategies", "Online adaptive strategy vs the offline tuning-table oracle, per table point", compareStrategies},
}

// Names lists experiment ids in paper order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// find returns the registry index of an experiment, or -1.
func find(name string) int {
	for i, e := range registry {
		if e.Name == name {
			return i
		}
	}
	return -1
}

// Describe returns the one-line description of an experiment.
func Describe(name string) (string, bool) {
	if i := find(name); i >= 0 {
		return registry[i].Desc, true
	}
	return "", false
}

// sizesPow2 returns powers of two in [lo, hi] divisible by div.
func sizesPow2(lo, hi, div int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		if s%div == 0 {
			out = append(out, s)
		}
	}
	return out
}

// rounds returns the (warmup, iters) counts for the mode: the first pair
// in quick mode, the second in full mode.
func (c Config) rounds(quickWarmup, quickIters, warmup, iters int) (int, int) {
	if c.Quick {
		return quickWarmup, quickIters
	}
	return warmup, iters
}

// niagaraModel is the model the paper feeds Netgauge measurements into.
func niagaraModel() *ploggp.Model { return ploggp.New(loggp.NiagaraMeasured()) }

// fig3 evaluates the PLogGP model across message sizes for partition
// counts 1..32 with the paper's 4 ms delay.
func fig3(cfg Config) plan {
	model := niagaraModel()
	sizes := sizesPow2(4<<10, 256<<20, 1)
	if cfg.Quick {
		sizes = sizesPow2(64<<10, 16<<20, 1)
	}
	counts := []int{1, 2, 4, 8, 16, 32}
	return plan{render: func([]bench.GridResult) []*stats.Table {
		headers := []string{"size"}
		for _, n := range counts {
			headers = append(headers, fmt.Sprintf("T(n=%d)", n))
		}
		tb := stats.NewTable("Figure 3: PLogGP modelled time to completion (4 ms delay)", headers...)
		for _, s := range sizes {
			row := []any{stats.FormatBytes(s)}
			for _, n := range counts {
				row = append(row, model.CompletionTime(n, s, 4*time.Millisecond))
			}
			tb.AddRow(row...)
		}
		return []*stats.Table{tb}
	}}
}

// table1 regenerates the paper's Table I.
func table1(Config) plan {
	return plan{render: func([]bench.GridResult) []*stats.Table {
		rows := niagaraModel().SummaryTable(64<<10, 256<<20, 128, 4*time.Millisecond)
		tb := stats.NewTable("Table I: optimal transport partitions (PLogGP, Niagara parameters)",
			"aggregate message size", "transport partitions")
		for _, r := range rows {
			label := fmt.Sprintf("%s-%s", stats.FormatBytes(r.MinBytes), stats.FormatBytes(r.MaxBytes))
			if r.MinBytes == r.MaxBytes {
				label = stats.FormatBytes(r.MinBytes)
			}
			tb.AddRow(label, r.Partitions)
		}
		return []*stats.Table{tb}
	}}
}

// overheadBase is the overhead benchmark at parts user partitions
// (Section V-B protocol: no compute, no noise).
func overheadBase(cfg Config, parts int) bench.GridConfig {
	warmup, iters := cfg.rounds(2, 5, 10, 100)
	return bench.GridConfig{Pattern: bench.P2P, Threads: parts, Warmup: warmup, Iters: iters}
}

// sizeTable is one table with a row per size: at every size, job(size,
// opts) runs under each of designs in order, and row turns that size's
// block of results into the row's cells after the size.
func sizeTable(title string, columns []string, sizes []int, designs []core.Options,
	job func(size int, opts core.Options) bench.GridConfig, row func(block []bench.GridResult) []any) plan {
	var p plan
	for _, s := range sizes {
		for _, opts := range designs {
			p.jobs = append(p.jobs, job(s, opts))
		}
	}
	n := len(designs)
	p.render = func(res []bench.GridResult) []*stats.Table {
		tb := stats.NewTable(title, append([]string{"size"}, columns...)...)
		for si, s := range sizes {
			tb.AddRow(append([]any{stats.FormatBytes(s)}, row(res[si*n:(si+1)*n])...)...)
		}
		return []*stats.Table{tb}
	}
	return p
}

// speedup is one table: base at every size under the baseline and under
// each variant, one row per size giving each variant's speedup in mean
// communication time over that size's baseline (with no compute, the mean
// iteration time). columns names the variants.
func speedup(cfg Config, title string, sizes []int, base bench.GridConfig, columns []string, variants []core.Options) plan {
	return sizeTable(title, columns, sizes, append([]core.Options{{Strategy: core.StrategyBaseline}}, variants...),
		func(s int, opts core.Options) bench.GridConfig {
			job := base
			job.Bytes, job.Opts = s, opts
			return job
		},
		func(block []bench.GridResult) []any {
			var row []any
			for _, r := range block[1:] {
				row = append(row, stats.Speedup(block[0].MeanCommTime(), r.MeanCommTime()))
			}
			return row
		})
}

// fig6 sweeps transport partition counts at 32 user partitions, 2 QPs.
func fig6(cfg Config) plan {
	const parts = 32
	sizes := sizesPow2(4<<10, 64<<20, parts)
	transports := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		sizes = []int{32 << 10, 4 << 20}
		transports = []int{2, 32}
	}
	columns := make([]string, len(transports))
	variants := make([]core.Options, len(transports))
	for i, tr := range transports {
		columns[i] = fmt.Sprintf("speedup(T=%d)", tr)
		variants[i] = core.Options{
			Strategy:       core.StrategyPLogGP,
			TransportParts: tr,
			QPs:            2,
		}
	}
	return speedup(cfg, "Figure 6: overhead benchmark, 32 user partitions, 2 QPs (speedup vs baseline)",
		sizes, overheadBase(cfg, parts), columns, variants)
}

// fig7 sweeps QP counts at 16 user partitions with 16 transport
// partitions (no aggregation).
func fig7(cfg Config) plan {
	const parts = 16
	sizes := sizesPow2(4<<10, 64<<20, parts)
	qps := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		sizes = []int{64 << 10, 8 << 20}
		qps = []int{1, 16}
	}
	columns := make([]string, len(qps))
	variants := make([]core.Options, len(qps))
	for i, q := range qps {
		columns[i] = fmt.Sprintf("speedup(QPs=%d)", q)
		variants[i] = core.Options{
			Strategy:       core.StrategyPLogGP,
			TransportParts: parts,
			QPs:            q,
		}
	}
	return speedup(cfg, "Figure 7: overhead benchmark, 16 user/transport partitions (speedup vs baseline)",
		sizes, overheadBase(cfg, parts), columns, variants)
}

// fig8 compares the tuning-table aggregator against the PLogGP aggregator
// for 4, 32, and 128 user partitions. One search covers every partition
// count: the table is keyed per count, so its entries are those of one
// search per count.
func fig8(cfg Config) plan {
	partCounts := []int{4, 32, 128}
	lo, hi := 4<<10, 64<<20
	if cfg.Quick {
		partCounts = []int{32}
		lo, hi = 128<<10, 1<<20
	}
	table := core.NewTuningTable()
	tables := make([]plan, len(partCounts))
	for i, parts := range partCounts {
		tables[i] = speedup(cfg,
			fmt.Sprintf("Figure 8: overhead benchmark, %d user partitions (speedup vs baseline)", parts),
			sizesPow2(lo, hi, parts), overheadBase(cfg, parts),
			[]string{"tuning-table", "ploggp"},
			[]core.Options{
				{Strategy: core.StrategyTuningTable, Table: table},
				{Strategy: core.StrategyPLogGP},
			})
	}
	p := concat(tables...)
	warmup, iters := cfg.rounds(1, 3, 3, 10)
	p.search = &tuning.SearchConfig{
		UserParts: partCounts,
		Sizes:     sizesPow2(lo, hi, 1), // the search skips sizes a count does not divide
		Warmup:    warmup,
		Iters:     iters,
	}
	p.table = table
	return p
}

// perceivedConfig is one perceived-bandwidth run (Section V-C protocol).
func perceivedConfig(cfg Config, parts, size int, opts core.Options) bench.GridConfig {
	// 100 ms of compute per round makes 100 iterations 11+ virtual
	// seconds, so full runs measure 30; the paper's protocol, kept as is.
	warmup, iters := cfg.rounds(2, 5, 10, 30)
	return bench.GridConfig{
		Pattern:         bench.P2P,
		Threads:         parts,
		Bytes:           size,
		Compute:         100 * time.Millisecond,
		NoisePct:        4,
		JitterPerThread: time.Microsecond,
		Warmup:          warmup,
		Iters:           iters,
		Opts:            opts,
	}
}

// bandwidth is one perceived-bandwidth table (GB/s): a row per size and a
// column per variant, each cell one perceivedConfig run at parts
// partitions.
func bandwidth(cfg Config, title string, parts int, sizes []int, columns []string, variants []core.Options) plan {
	return sizeTable(title, columns, sizes, variants,
		func(s int, opts core.Options) bench.GridConfig { return perceivedConfig(cfg, parts, s, opts) },
		func(block []bench.GridResult) []any {
			var row []any
			for _, r := range block {
				row = append(row, r.MeanPerceivedBandwidth()/1e9)
			}
			return row
		})
}

// fig9 compares perceived bandwidth across the three designs.
func fig9(cfg Config) plan {
	partCounts := []int{16, 32}
	sizes := sizesPow2(1<<20, 128<<20, 32)
	if cfg.Quick {
		partCounts = []int{32}
		sizes = []int{8 << 20}
	}
	tables := make([]plan, len(partCounts))
	for i, parts := range partCounts {
		tables[i] = bandwidth(cfg,
			fmt.Sprintf("Figure 9: perceived bandwidth (GB/s), %d partitions, 100 ms compute, 4%% noise (link %.1f GB/s)",
				parts, fabric.LinkBandwidth/1e9),
			parts, sizes,
			[]string{"baseline", "ploggp", "timer(3000µs)"},
			[]core.Options{
				{Strategy: core.StrategyBaseline},
				{Strategy: core.StrategyPLogGP},
				{Strategy: core.StrategyTimerPLogGP, Delta: 3000 * time.Microsecond},
			})
	}
	return concat(tables...)
}

// arrivalProfile renders the Figures 10/11 table for one size.
func arrivalProfile(cfg Config, size int, title string) plan {
	const parts = 32
	return plan{
		jobs: []bench.GridConfig{perceivedConfig(cfg, parts, size, core.Options{Strategy: core.StrategyPLogGP})},
		render: func(res []bench.GridResult) []*stats.Table {
			mean := res[0].MeanArrival()
			commPerPart := time.Duration(float64(size/parts) / fabric.LinkBandwidth * 1e9)
			tb := stats.NewTable(title, "partition", "compute (start→Pready)", "est. comm time")
			idx := make([]int, parts)
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return mean[idx[a]] < mean[idx[b]] })
			for _, i := range idx {
				tb.AddRow(i, mean[i], commPerPart)
			}
			return []*stats.Table{tb}
		},
	}
}

// fig10 profiles the 8 MiB arrival pattern.
func fig10(cfg Config) plan {
	return arrivalProfile(cfg, 8<<20,
		"Figure 10: arrival profile, 8 MiB, 32 partitions, 100 ms compute, 4% noise")
}

// fig11 profiles the 128 MiB arrival pattern (network limited).
func fig11(cfg Config) plan {
	size := 128 << 20
	if cfg.Quick {
		size = 32 << 20
	}
	return arrivalProfile(cfg, size,
		"Figure 11: arrival profile, 128 MiB, 32 partitions, 100 ms compute, 4% noise")
}

// fig12 estimates the minimum useful delta per (partition count, size).
func fig12(cfg Config) plan {
	partCounts := []int{8, 16, 32, 64, 128}
	sizes := sizesPow2(1<<20, 128<<20, 128)
	if cfg.Quick {
		partCounts = []int{32}
		sizes = []int{8 << 20}
	}
	model := niagaraModel()
	// The paper's missing points: where the model requests no aggregation
	// (transport == user partitions) the timer has nothing to group, so
	// only the remaining cells become simulation jobs.
	grouped := func(s, parts int) bool { return model.OptimalTransport(s, parts, 4*time.Millisecond) != parts }
	var p plan
	for _, s := range sizes {
		for _, parts := range partCounts {
			if grouped(s, parts) {
				p.jobs = append(p.jobs, perceivedConfig(cfg, parts, s, core.Options{Strategy: core.StrategyPLogGP}))
			}
		}
	}
	p.render = func(res []bench.GridResult) []*stats.Table {
		headers := []string{"size"}
		for _, parts := range partCounts {
			headers = append(headers, fmt.Sprintf("minδ(%d parts)", parts))
		}
		tb := stats.NewTable("Figure 12: estimated minimum delta for the timer aggregator", headers...)
		for _, s := range sizes {
			row := []any{stats.FormatBytes(s)}
			for _, parts := range partCounts {
				if !grouped(s, parts) {
					row = append(row, "-")
					continue
				}
				row = append(row, res[0].MinDelta())
				res = res[1:]
			}
			tb.AddRow(row...)
		}
		return []*stats.Table{tb}
	}
	return p
}

// fig13 sweeps delta around the estimated minimum for 32 partitions.
func fig13(cfg Config) plan {
	sizes := sizesPow2(1<<20, 128<<20, 32)
	if cfg.Quick {
		sizes = []int{8 << 20}
	}
	var columns []string
	var variants []core.Options
	for _, d := range []time.Duration{10 * time.Microsecond, 35 * time.Microsecond, 100 * time.Microsecond} {
		columns = append(columns, fmt.Sprintf("BW(δ=%v)", d))
		variants = append(variants, core.Options{Strategy: core.StrategyTimerPLogGP, Delta: d})
	}
	return bandwidth(cfg, "Figure 13: perceived bandwidth (GB/s) around the minimum delta, 32 partitions",
		32, sizes, columns, variants)
}

// gridVariants are the aggregators the grid experiments compare with the
// baseline, named by gridColumns.
var (
	gridVariants = []core.Options{
		{Strategy: core.StrategyPLogGP},
		{Strategy: core.StrategyTimerPLogGP, Delta: 35 * time.Microsecond},
	}
	gridColumns = []string{"ploggp", "timer-ploggp"}
)

// fig14 runs the Sweep3D pattern at 1024 cores for three compute/noise
// configurations.
func fig14(cfg Config) plan {
	gridX, gridY, threads := 8, 8, 16
	sizes := sizesPow2(16<<10, 16<<20, threads)
	if cfg.Quick {
		gridX, gridY = 4, 4
		sizes = []int{256 << 10, 4 << 20}
	}
	configs := []struct {
		compute time.Duration
		noise   float64
		label   string
	}{
		{time.Millisecond, 1, "(a) 1 ms compute, 1% noise (10 µs)"},
		{time.Millisecond, 4, "(b) 1 ms compute, 4% noise (40 µs)"},
		{10 * time.Millisecond, 4, "(c) 10 ms compute, 4% noise (400 µs)"},
	}
	warmup, iters := cfg.rounds(1, 3, 3, 10)
	tables := make([]plan, len(configs))
	for i, c := range configs {
		tables[i] = speedup(cfg,
			fmt.Sprintf("Figure 14%s: Sweep3D %dx%d ranks x %d threads, communication speedup vs baseline",
				c.label[:3], gridX, gridY, threads),
			sizes,
			bench.GridConfig{
				Pattern: bench.Sweep3D,
				GridX:   gridX, GridY: gridY,
				Threads:  threads,
				Compute:  c.compute,
				NoisePct: c.noise,
				Warmup:   warmup, Iters: iters,
			}, gridColumns, gridVariants)
	}
	return concat(tables...)
}

// halo runs the halo-exchange pattern from the paper's benchmark suite
// (reference [14] evaluates both a halo exchange and the sweep; the paper
// itself reports only the sweep, so this is an extension exhibit): a 4x4
// periodic rank grid, 16 threads, communication speedup of the aggregators
// over the baseline.
func halo(cfg Config) plan {
	gridX, gridY, threads := 4, 4, 16
	sizes := sizesPow2(16<<10, 4<<20, threads)
	if cfg.Quick {
		gridX, gridY = 2, 2
		sizes = []int{256 << 10}
	}
	warmup, iters := cfg.rounds(1, 3, 3, 10)
	return speedup(cfg,
		"Halo exchange (extension): communication speedup vs baseline, 1 ms compute, 1% noise",
		sizes,
		bench.GridConfig{
			Pattern: bench.Halo,
			GridX:   gridX, GridY: gridY,
			Threads:  threads,
			Compute:  time.Millisecond,
			NoisePct: 1,
			Warmup:   warmup, Iters: iters,
		}, gridColumns, gridVariants)
}
