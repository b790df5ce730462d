package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tuning"
)

// runJobs runs jobs through run as one experiment and returns
// their results in job order.
func runJobs(t *testing.T, jobs []bench.GridConfig) []bench.GridResult {
	t.Helper()
	var out []bench.GridResult
	p := plan{jobs: jobs, render: func(res []bench.GridResult) []*stats.Table {
		out = append(out, res...)
		return nil
	}}
	if err := run(Config{}, []string{"jobs"}, []plan{p}, func(string, []*stats.Table) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunSurfacesFirstError: a failing job or search makes Run return the
// error the experiments run one at a time would hit first, prefixed with
// its experiment's name, after emitting every experiment before it and
// nothing of it or after it — whatever the worker count.
func TestRunSurfacesFirstError(t *testing.T) {
	names := []string{"fig3", "table1", "fig6", "fig8", "fig9", "halo", "compare-strategies"}
	const fig6, fig8, halo, compare = 2, 3, 5, 6
	for _, tc := range []struct {
		name    string
		corrupt func(ps []plan)
		want    string
		emitted int
	}{
		{"job", func(ps []plan) {
			ps[halo].jobs[1].Bytes = 3
			ps[halo].jobs[2].Threads = 0
			ps[compare].jobs[0].Threads = 0
		}, "halo: bench: Bytes 3 not divisible into 16 partitions", halo},
		{"job before search", func(ps []plan) {
			ps[fig6].jobs[3].Bytes = 3
			ps[compare].search.Sizes = []int{0}
		}, "fig6: bench: Bytes 3 not divisible into 32 partitions", fig6},
		{"search config", func(ps []plan) {
			ps[fig8].search.Sizes = []int{0}
		}, "fig8: tuning: bad size 0", fig8},
		{"search candidate", func(ps []plan) {
			ps[compare].search.Warmup = -1
		}, "compare-strategies: bench: bad iteration counts warmup=-1 iters=3", compare},
	} {
		for _, jobs := range []int{1, 4} {
			cfg := Config{Quick: true, Jobs: jobs}
			plans := make([]plan, len(names))
			for i, name := range names {
				plans[i] = registry[find(name)].plan(cfg)
			}
			tc.corrupt(plans)
			var emitted []string
			err := run(cfg, names, plans, func(name string, _ []*stats.Table) error {
				emitted = append(emitted, name)
				return nil
			})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, Jobs=%d: error %v, want %q", tc.name, jobs, err, tc.want)
			}
			if got, want := strings.Join(emitted, " "), strings.Join(names[:tc.emitted], " "); got != want {
				t.Errorf("%s, Jobs=%d: emitted %q, want %q", tc.name, jobs, got, want)
			}
		}
	}
}

// TestAdaptiveGuardOnSmokeGrid is the Hunold-style acceptance check on a
// smoke grid, one size per arrival pattern: on every point the adaptive
// strategy must stay within adaptiveGuardBound of the best static design
// post-warm-up, and strictly beat the worst static design on the skewed
// patterns. The best and worst static designs the render reports must
// bracket every static design.
func TestAdaptiveGuardOnSmokeGrid(t *testing.T) {
	jobs := adaptiveJobs(bench.GridConfig{
		Pattern: bench.P2P,
		Threads: 16,
		Compute: 20 * time.Microsecond,
		Warmup:  16,
		Iters:   24,
		Arrival: &trace.ArrivalPattern{Seed: 7, Spread: 500 * time.Microsecond},
	}, []int{256 << 10})
	points := adaptivePoints(jobs, runJobs(t, jobs))
	kinds := trace.PatternKinds()
	if len(points) != len(kinds) {
		t.Fatalf("got %d grid points, want %d", len(points), len(kinds))
	}
	for i, p := range points {
		t.Logf("%-10s %8dB  base=%v ploggp=%v timer=%v adaptive=%v",
			p.pattern, p.bytes, p.static[0], p.static[1], p.static[2], p.adaptive)
		if p.pattern != kinds[i].String() || p.bytes != 256<<10 {
			t.Errorf("point %d: got %s/%d, want %s/%d", i, p.pattern, p.bytes, kinds[i], 256<<10)
		}
		if p.tel == nil || p.tel.RecordedArrivals == 0 {
			t.Errorf("%s: adaptive run recorded no arrivals", p.pattern)
		}
		best, worst := p.static[p.best], p.static[p.worst]
		if best <= 0 || best > worst {
			t.Errorf("%s: inconsistent best %v / worst %v", p.pattern, best, worst)
		}
		for _, d := range p.static {
			if d < best || d > worst {
				t.Errorf("%s: static %v outside [best %v, worst %v]", p.pattern, d, best, worst)
			}
		}
	}
	for _, v := range checkAdaptiveGuard(points) {
		t.Error(v)
	}
}

// TestCompareStrategiesAgainstTunedTable: compare-strategies' jobs replay
// every point of the table its search finds, in the table's order, once
// under that table and once under the adaptive strategy, and every replay
// measures.
func TestCompareStrategiesAgainstTunedTable(t *testing.T) {
	p := comparePlan(tuning.SearchConfig{
		UserParts: []int{16},
		Sizes:     []int{64 << 10, 256 << 10},
		Warmup:    1,
		Iters:     3,
	}, 12, 12)
	var res []bench.GridResult
	var tables []*stats.Table
	render := p.render
	p.render = func(r []bench.GridResult) []*stats.Table {
		res = append(res, r...)
		return render(r)
	}
	err := run(Config{}, []string{"compare-strategies"}, []plan{p}, func(_ string, tbs []*stats.Table) error {
		tables = tbs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []core.TuningKey
	p.table.ForEach(func(k core.TuningKey, _ core.TuningValue) { keys = append(keys, k) })
	if want := []core.TuningKey{{UserParts: 16, Bytes: 64 << 10}, {UserParts: 16, Bytes: 256 << 10}}; len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("searched table keys %v, want %v", keys, want)
	}
	if len(p.jobs) != 2*len(keys) || len(res) != len(p.jobs) {
		t.Fatalf("%d jobs and %d results, want two per table entry (%d)", len(p.jobs), len(res), len(keys))
	}
	for i, job := range p.jobs {
		k := keys[i/2]
		tuned := i%2 == 0
		if job.Threads != k.UserParts || job.Bytes != k.Bytes ||
			tuned != (job.Opts.Strategy == core.StrategyTuningTable && job.Opts.Table == p.table) ||
			!tuned && job.Opts.Strategy != core.StrategyAdaptive {
			t.Errorf("job %d: %d parts, %d B, %v; want table point %+v, tuned=%v", i, job.Threads, job.Bytes, job.Opts.Strategy, k, tuned)
		}
		if res[i].MeanIterTime() <= 0 {
			t.Errorf("job %d: unmeasured", i)
		}
	}
	var csv strings.Builder
	if err := tables[0].WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", csv.String())
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")[1:]
	if len(rows) != len(keys) {
		t.Fatalf("%d rows, want one per table entry (%d)", len(rows), len(keys))
	}
	for i, row := range rows {
		if !strings.HasPrefix(row, stats.FormatBytes(keys[i].Bytes)+",") {
			t.Errorf("row %d = %q, want size %s", i, row, stats.FormatBytes(keys[i].Bytes))
		}
	}
}

// TestTopoReachesEveryJob: the pool sets Config.Topo on every job it
// runs, so quick ablation-adaptive, whose plan sets no topology of its
// own, renders differently over a two-level fabric with a 20 µs
// inter-rack extra than over the default single link.
func TestTopoReachesEveryJob(t *testing.T) {
	const name = "ablation-adaptive"
	def := renderCSV(t, runTables(t, Config{Quick: true}, name)[name])
	twoLevel := renderCSV(t, runTables(t, Config{Quick: true, Topo: "two-level:rack=1,extra=20us"}, name)[name])
	if def == twoLevel {
		t.Errorf("%s renders the same with and without -topo:\n%s", name, def)
	}
}
