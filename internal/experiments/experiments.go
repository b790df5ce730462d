// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section III Figure 3, Table I, and Section V
// Figures 6-14). Each driver runs the same workload the paper ran —
// scaled onto the simulated cluster — and emits the rows/series the figure
// plots, so the reproduction's shape can be compared against the paper's
// point by point (see EXPERIMENTS.md).
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
	"repro/internal/sweep"
	"repro/internal/tuning"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks the sweep for smoke tests.
	Quick bool
	// Progress, if non-nil, receives one line per major step. It is
	// always invoked from the goroutine running the driver (never from
	// sweep workers), so it needs no locking.
	Progress func(format string, args ...any)
	// Jobs bounds how many independent simulation runs a driver executes
	// concurrently. Every run is a self-contained deterministic
	// simulation, so tables are byte-identical for any value. Zero or
	// negative selects GOMAXPROCS; 1 forces the serial path.
	Jobs int
	// Shards partitions every benchmark's simulation into this many
	// conservative-PDES shards (clamped per run to its node count; see
	// cluster.Config.Shards). Zero or 1 runs serial. Tables are
	// byte-identical for any value.
	Shards int
	// Topo selects the fabric topology by spec for every benchmark run
	// ("single-link", "fat-tree:k=8", ...; see fabric.ParseTopology).
	// Empty keeps the default single-link fabric — byte-identical to
	// "single-link" by construction.
	Topo string
}

func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// Runner executes one experiment and returns its result tables.
type Runner func(Config) ([]*stats.Table, error)

// registry maps experiment ids to runners, in paper order.
var registry = []struct {
	Name string
	Desc string
	Run  Runner
}{
	{"fig3", "PLogGP modelled completion time vs message size per partition count (4 ms delay)", Fig3},
	{"table1", "Optimal transport partitions per aggregate message size (PLogGP model)", Table1},
	{"fig6", "Overhead benchmark, 32 user partitions: transport partition sweep (2 QPs)", Fig6},
	{"fig7", "Overhead benchmark, 16 user/transport partitions: QP sweep", Fig7},
	{"fig8", "Overhead benchmark: tuning table vs PLogGP aggregator (4/32/128 partitions)", Fig8},
	{"fig9", "Perceived bandwidth: baseline vs PLogGP vs Timer-PLogGP (100 ms, 4 % noise)", Fig9},
	{"fig10", "Arrival-pattern profile, 8 MiB, 32 partitions", Fig10},
	{"fig11", "Arrival-pattern profile, 128 MiB, 32 partitions", Fig11},
	{"fig12", "Estimated minimum delta vs message size per partition count", Fig12},
	{"fig13", "Perceived bandwidth around the minimum delta (10/35/100 us), 32 partitions", Fig13},
	{"fig14", "Sweep3D communication speedup at 1024 cores (16 threads x 64 nodes)", Fig14},
	{"ablation-model", "Ablation: PLogGP ideal vs pipelined model vs simulated completion", AblationModel},
	{"halo", "Extension: halo-exchange communication speedup (the suite's other pattern)", Halo},
	{"ablation-adaptive", "Ablation: adaptive strategy vs each static design across arrival patterns", AblationAdaptive},
	{"compare-strategies", "Online adaptive strategy vs the offline tuning-table oracle, per table point", CompareStrategiesExp},
}

// Names lists experiment ids in paper order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) (string, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e.Desc, true
		}
	}
	return "", false
}

// Lookup returns the runner for an experiment id.
func Lookup(name string) (Runner, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e.Run, true
		}
	}
	return nil, false
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

// iterCounts returns (warmup, iters) for point-to-point runs.
func (c Config) iterCounts() (int, int) {
	if c.Quick {
		return 2, 5
	}
	return 10, 100
}

// sweepIterCounts returns (warmup, iters) for sweep runs.
func (c Config) sweepIterCounts() (int, int) {
	if c.Quick {
		return 1, 3
	}
	return 3, 10
}

// niagaraModel is the model the paper feeds Netgauge measurements into.
func niagaraModel() *ploggp.Model { return ploggp.New(loggp.NiagaraMeasured()) }

// Fig3 evaluates the PLogGP model across message sizes for partition
// counts 1..32 with the paper's 4 ms delay.
func Fig3(cfg Config) ([]*stats.Table, error) {
	model := niagaraModel()
	sizes := sizesPow2(4<<10, 256<<20, 1)
	if cfg.Quick {
		sizes = sizesPow2(64<<10, 16<<20, 1)
	}
	counts := []int{1, 2, 4, 8, 16, 32}
	tb := stats.NewTable("Figure 3: PLogGP modelled time to completion (4 ms delay)",
		append([]string{"size"}, func() []string {
			h := make([]string, len(counts))
			for i, n := range counts {
				h[i] = fmt.Sprintf("T(n=%d)", n)
			}
			return h
		}()...)...)
	for _, s := range sizes {
		row := make([]any, 0, len(counts)+1)
		row = append(row, stats.FormatBytes(s))
		for _, n := range counts {
			row = append(row, model.CompletionTime(n, s, 4*time.Millisecond))
		}
		tb.AddRow(row...)
	}
	return []*stats.Table{tb}, nil
}

// Table1 regenerates the paper's Table I.
func Table1(cfg Config) ([]*stats.Table, error) {
	model := niagaraModel()
	rows := model.SummaryTable(64<<10, 256<<20, 128, 4*time.Millisecond)
	tb := stats.NewTable("Table I: optimal transport partitions (PLogGP, Niagara parameters)",
		"aggregate message size", "transport partitions")
	for _, r := range rows {
		label := fmt.Sprintf("%s-%s", stats.FormatBytes(r.MinBytes), stats.FormatBytes(r.MaxBytes))
		if r.MinBytes == r.MaxBytes {
			label = stats.FormatBytes(r.MinBytes)
		}
		tb.AddRow(label, r.Partitions)
	}
	return []*stats.Table{tb}, nil
}

// runOrdered executes run once per job across c.Jobs workers and returns
// the results in job order. label, if non-nil, names job i for progress
// reporting; it is invoked in order from the collector (the goroutine
// running the driver), with "" suppressing the line.
func runOrdered[J, R any](c Config, jobs []J, run func(J) (R, error), label func(i int) string) ([]R, error) {
	out := make([]R, len(jobs))
	err := sweep.Ordered(c.Jobs, len(jobs),
		func(i int) (R, error) { return run(jobs[i]) },
		func(i int, r R) error {
			if label != nil {
				if l := label(i); l != "" {
					c.progress("%s", l)
				}
			}
			out[i] = r
			return nil
		})
	return out, err
}

// overheadBase is the overhead benchmark at parts user partitions
// (Section V-B protocol: no compute, no noise).
func overheadBase(cfg Config, parts int) bench.GridConfig {
	warmup, iters := cfg.iterCounts()
	return bench.GridConfig{Pattern: bench.P2P, Threads: parts, Warmup: warmup, Iters: iters}
}

// speedupTable runs base at every size under the baseline and under each
// variant, all concurrently, and returns one row per size: each variant's
// speedup in mean communication time over that size's baseline (with no
// compute, the mean iteration time). columns names the variants; label
// prefixes the progress lines.
func speedupTable(cfg Config, title, label string, sizes []int, base bench.GridConfig, columns []string, variants []core.Options) (*stats.Table, error) {
	base.Shards, base.Topo = cfg.Shards, cfg.Topo
	designs := append([]core.Options{{Strategy: core.StrategyBaseline}}, variants...)
	n := len(designs)
	jobs := make([]bench.GridConfig, 0, len(sizes)*n)
	for _, s := range sizes {
		for _, opts := range designs {
			job := base
			job.Bytes, job.Opts = s, opts
			jobs = append(jobs, job)
		}
	}
	res, err := runOrdered(cfg, jobs, bench.RunGrid, func(i int) string {
		if i%n == 0 {
			return fmt.Sprintf("%s: size %s", label, stats.FormatBytes(sizes[i/n]))
		}
		return ""
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(title, append([]string{"size"}, columns...)...)
	for si, s := range sizes {
		block := res[si*n : (si+1)*n]
		row := []any{stats.FormatBytes(s)}
		for _, r := range block[1:] {
			row = append(row, stats.Speedup(block[0].MeanCommTime(), r.MeanCommTime()))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Fig6 sweeps transport partition counts at 32 user partitions, 2 QPs.
func Fig6(cfg Config) ([]*stats.Table, error) {
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
	tb, err := speedupTable(cfg, "Figure 6: overhead benchmark, 32 user partitions, 2 QPs (speedup vs baseline)",
		"fig6", sizes, overheadBase(cfg, parts), columns, variants)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{tb}, nil
}

// Fig7 sweeps QP counts at 16 user partitions with 16 transport
// partitions (no aggregation).
func Fig7(cfg Config) ([]*stats.Table, error) {
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
	tb, err := speedupTable(cfg, "Figure 7: overhead benchmark, 16 user/transport partitions (speedup vs baseline)",
		"fig7", sizes, overheadBase(cfg, parts), columns, variants)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{tb}, nil
}

// Fig8 compares the tuning-table aggregator against the PLogGP aggregator
// for 4, 32, and 128 user partitions.
func Fig8(cfg Config) ([]*stats.Table, error) {
	partCounts := []int{4, 32, 128}
	lo, hi := 4<<10, 64<<20
	if cfg.Quick {
		partCounts = []int{32}
		lo, hi = 128<<10, 1<<20
	}
	var tables []*stats.Table
	for _, parts := range partCounts {
		sizes := sizesPow2(lo, hi, parts)
		cfg.progress("fig8: brute-force tuning search for %d partitions", parts)
		table, err := tuning.Search(tuning.SearchConfig{
			UserParts: []int{parts},
			Sizes:     sizes,
			Warmup:    warmupFor(cfg, 3),
			Iters:     itersFor(cfg, 10),
			Workers:   cfg.Jobs,
		})
		if err != nil {
			return nil, err
		}
		tb, err := speedupTable(cfg,
			fmt.Sprintf("Figure 8: overhead benchmark, %d user partitions (speedup vs baseline)", parts),
			fmt.Sprintf("fig8: %d partitions,", parts), sizes, overheadBase(cfg, parts),
			[]string{"tuning-table", "ploggp"},
			[]core.Options{
				{Strategy: core.StrategyTuningTable, Table: table},
				{Strategy: core.StrategyPLogGP},
			})
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

func warmupFor(cfg Config, full int) int {
	if cfg.Quick {
		return 1
	}
	return full
}

func itersFor(cfg Config, full int) int {
	if cfg.Quick {
		return 3
	}
	return full
}

// perceivedConfig is one perceived-bandwidth run (Section V-C protocol).
func perceivedConfig(cfg Config, parts, size int, opts core.Options) bench.GridConfig {
	warmup, iters := cfg.iterCounts()
	if !cfg.Quick {
		// 100 ms of compute per round makes 100 iterations 11+ virtual
		// seconds; the paper's protocol, kept as is.
		warmup, iters = 10, 30
	}
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
		Shards:          cfg.Shards,
		Topo:            cfg.Topo,
	}
}

// Fig9 compares perceived bandwidth across the three designs.
func Fig9(cfg Config) ([]*stats.Table, error) {
	partCounts := []int{16, 32}
	sizes := sizesPow2(1<<20, 128<<20, 32)
	if cfg.Quick {
		partCounts = []int{32}
		sizes = []int{8 << 20}
	}
	link := fabric.LinkBandwidth
	var tables []*stats.Table
	for _, parts := range partCounts {
		tb := stats.NewTable(
			fmt.Sprintf("Figure 9: perceived bandwidth (GB/s), %d partitions, 100 ms compute, 4%% noise (link %.1f GB/s)",
				parts, link/1e9),
			"size", "baseline", "ploggp", "timer(3000µs)")
		variants := []core.Options{
			{Strategy: core.StrategyBaseline},
			{Strategy: core.StrategyPLogGP},
			{Strategy: core.StrategyTimerPLogGP, Delta: 3000 * time.Microsecond},
		}
		jobs := make([]bench.GridConfig, 0, len(sizes)*len(variants))
		for _, s := range sizes {
			for _, opts := range variants {
				jobs = append(jobs, perceivedConfig(cfg, parts, s, opts))
			}
		}
		parts := parts
		res, err := runOrdered(cfg, jobs, bench.RunGrid, func(i int) string {
			if i%len(variants) == 0 {
				return fmt.Sprintf("fig9: %d partitions, size %s", parts, stats.FormatBytes(sizes[i/len(variants)]))
			}
			return ""
		})
		if err != nil {
			return nil, err
		}
		for si, s := range sizes {
			row := []any{stats.FormatBytes(s)}
			for vi := range variants {
				row = append(row, res[si*len(variants)+vi].MeanPerceivedBandwidth()/1e9)
			}
			tb.AddRow(row...)
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// arrivalProfile renders the Figures 10/11 table for one size.
func arrivalProfile(cfg Config, size int, title string) ([]*stats.Table, error) {
	const parts = 32
	res, err := bench.RunGrid(perceivedConfig(cfg, parts, size, core.Options{Strategy: core.StrategyPLogGP}))
	if err != nil {
		return nil, err
	}
	mean := res.Profile.MeanArrival(res.Warmup)
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
	return []*stats.Table{tb}, nil
}

// Fig10 profiles the 8 MiB arrival pattern.
func Fig10(cfg Config) ([]*stats.Table, error) {
	return arrivalProfile(cfg, 8<<20,
		"Figure 10: arrival profile, 8 MiB, 32 partitions, 100 ms compute, 4% noise")
}

// Fig11 profiles the 128 MiB arrival pattern (network limited).
func Fig11(cfg Config) ([]*stats.Table, error) {
	size := 128 << 20
	if cfg.Quick {
		size = 32 << 20
	}
	return arrivalProfile(cfg, size,
		"Figure 11: arrival profile, 128 MiB, 32 partitions, 100 ms compute, 4% noise")
}

// Fig12 estimates the minimum useful delta per (partition count, size).
func Fig12(cfg Config) ([]*stats.Table, error) {
	partCounts := []int{8, 16, 32, 64, 128}
	sizes := sizesPow2(1<<20, 128<<20, 128)
	if cfg.Quick {
		partCounts = []int{32}
		sizes = []int{8 << 20}
	}
	model := niagaraModel()
	headers := []string{"size"}
	for _, p := range partCounts {
		headers = append(headers, fmt.Sprintf("minδ(%d parts)", p))
	}
	tb := stats.NewTable("Figure 12: estimated minimum delta for the timer aggregator", headers...)
	// The paper's missing points: where the model requests no aggregation
	// (transport == user partitions) the timer has nothing to group, so
	// only the remaining cells become simulation jobs.
	type cell struct{ size, parts int }
	var cells []cell
	for _, s := range sizes {
		for _, parts := range partCounts {
			if model.OptimalTransport(s, parts, 4*time.Millisecond) != parts {
				cells = append(cells, cell{s, parts})
			}
		}
	}
	jobs := make([]bench.GridConfig, len(cells))
	for i, c := range cells {
		jobs[i] = perceivedConfig(cfg, c.parts, c.size, core.Options{Strategy: core.StrategyPLogGP})
	}
	res, err := runOrdered(cfg, jobs, bench.RunGrid, func(i int) string {
		return fmt.Sprintf("fig12: %d partitions, size %s", cells[i].parts, stats.FormatBytes(cells[i].size))
	})
	if err != nil {
		return nil, err
	}
	next := 0
	for _, s := range sizes {
		row := []any{stats.FormatBytes(s)}
		for _, parts := range partCounts {
			if model.OptimalTransport(s, parts, 4*time.Millisecond) == parts {
				row = append(row, "-")
				continue
			}
			r := res[next]
			next++
			row = append(row, r.Profile.MinDelta(r.Warmup))
		}
		tb.AddRow(row...)
	}
	return []*stats.Table{tb}, nil
}

// Fig13 sweeps delta around the estimated minimum for 32 partitions.
func Fig13(cfg Config) ([]*stats.Table, error) {
	const parts = 32
	sizes := sizesPow2(1<<20, 128<<20, parts)
	if cfg.Quick {
		sizes = []int{8 << 20}
	}
	deltas := []time.Duration{10 * time.Microsecond, 35 * time.Microsecond, 100 * time.Microsecond}
	headers := []string{"size"}
	for _, d := range deltas {
		headers = append(headers, fmt.Sprintf("BW(δ=%v)", d))
	}
	tb := stats.NewTable("Figure 13: perceived bandwidth (GB/s) around the minimum delta, 32 partitions", headers...)
	jobs := make([]bench.GridConfig, 0, len(sizes)*len(deltas))
	for _, s := range sizes {
		for _, d := range deltas {
			jobs = append(jobs, perceivedConfig(cfg, parts, s, core.Options{
				Strategy: core.StrategyTimerPLogGP,
				Delta:    d,
			}))
		}
	}
	res, err := runOrdered(cfg, jobs, bench.RunGrid, func(i int) string {
		if i%len(deltas) == 0 {
			return fmt.Sprintf("fig13: size %s", stats.FormatBytes(sizes[i/len(deltas)]))
		}
		return ""
	})
	if err != nil {
		return nil, err
	}
	for si, s := range sizes {
		row := []any{stats.FormatBytes(s)}
		for di := range deltas {
			row = append(row, res[si*len(deltas)+di].MeanPerceivedBandwidth()/1e9)
		}
		tb.AddRow(row...)
	}
	return []*stats.Table{tb}, nil
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

// Fig14 runs the Sweep3D pattern at 1024 cores for three compute/noise
// configurations.
func Fig14(cfg Config) ([]*stats.Table, error) {
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
	warmup, iters := cfg.sweepIterCounts()
	var tables []*stats.Table
	for _, c := range configs {
		tb, err := speedupTable(cfg,
			fmt.Sprintf("Figure 14%s: Sweep3D %dx%d ranks x %d threads, communication speedup vs baseline",
				c.label[:3], gridX, gridY, threads),
			"fig14"+c.label[:3], sizes,
			bench.GridConfig{
				Pattern: bench.Sweep3D,
				GridX:   gridX, GridY: gridY,
				Threads:  threads,
				Compute:  c.compute,
				NoisePct: c.noise,
				Warmup:   warmup, Iters: iters,
			}, gridColumns, gridVariants)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// Halo runs the halo-exchange pattern from the paper's benchmark suite
// (reference [14] evaluates both a halo exchange and the sweep; the paper
// itself reports only the sweep, so this is an extension exhibit): a 4x4
// periodic rank grid, 16 threads, communication speedup of the aggregators
// over the baseline.
func Halo(cfg Config) ([]*stats.Table, error) {
	gridX, gridY, threads := 4, 4, 16
	sizes := sizesPow2(16<<10, 4<<20, threads)
	if cfg.Quick {
		gridX, gridY = 2, 2
		sizes = []int{256 << 10}
	}
	warmup, iters := cfg.sweepIterCounts()
	tb, err := speedupTable(cfg,
		"Halo exchange (extension): communication speedup vs baseline, 1 ms compute, 1% noise",
		"halo", sizes,
		bench.GridConfig{
			Pattern: bench.Halo,
			GridX:   gridX, GridY: gridY,
			Threads:  threads,
			Compute:  time.Millisecond,
			NoisePct: 1,
			Warmup:   warmup, Iters: iters,
		}, gridColumns, gridVariants)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{tb}, nil
}
