package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/tuning"
)

// Run runs the named experiments (see Names) as one job pool and calls
// emit with each experiment's tables, in the order of names, from the
// calling goroutine.
//
// The work runs in at most two passes over cfg.Jobs workers. The first
// runs the candidates of every experiment's tuning search, one candidate
// per job, and records each winning table. The second runs every
// experiment's jobs, and an experiment renders and is emitted as soon as
// its last result is collected. Results are collected in job order, so
// the tables are byte-identical for any worker count. The error returned
// is the one running the experiments one at a time would hit first,
// prefixed with its experiment's name, and every experiment before it has
// been emitted.
func Run(names []string, cfg Config, emit func(name string, tables []*stats.Table) error) error {
	plans := make([]plan, len(names))
	for i, name := range names {
		e := find(name)
		if e < 0 {
			return fmt.Errorf("unknown experiment %q", name)
		}
		plans[i] = registry[e].plan(cfg)
	}
	return run(cfg, names, plans, emit)
}

// run is Run over plans already built; plans[e] is named names[e].
func run(cfg Config, names []string, plans []plan, emit func(string, []*stats.Table) error) error {
	stop, searchErr := search(cfg, names, plans)
	var jobs []bench.GridConfig
	ends := make([]int, stop) // ends[e] is one past the last job of plans[e]
	for e, p := range plans[:stop] {
		jobs = append(jobs, p.jobs...)
		ends[e] = len(jobs)
	}
	res := make([]bench.GridResult, len(jobs))
	next := 0 // the first experiment not yet emitted
	flush := func(done int) error {
		for ; next < stop && ends[next] <= done; next++ {
			lo := ends[next] - len(plans[next].jobs)
			if err := emit(names[next], plans[next].render(res[lo:ends[next]])); err != nil {
				return err
			}
			clear(res[lo:ends[next]]) // only the rendered tables are kept
		}
		return nil
	}
	if err := flush(0); err != nil {
		return err
	}
	err := cfg.pool(names, ends, jobs, func(i int, r bench.GridResult) error {
		res[i] = r
		if cfg.Progress != nil {
			cfg.Progress("job %d/%d done (%s)", i+1, len(jobs), names[owner(ends, i)])
		}
		return flush(i + 1)
	})
	if err != nil {
		return err
	}
	return searchErr
}

// search is the first pass: it runs the candidates of every plan's tuning
// search and records each search's picks in its plan's table. It returns
// len(plans), or the index of the first plan whose search failed and that
// failure; the plans before it are searched.
func search(cfg Config, names []string, plans []plan) (int, error) {
	var cands []bench.GridConfig
	var ends []int // ends[e] is one past the last candidate of plans[e]
	stop, failed := len(plans), error(nil)
	for e, p := range plans {
		if p.search != nil {
			c, err := tuning.Candidates(*p.search)
			if err != nil {
				stop, failed = e, fmt.Errorf("%s: %w", names[e], err)
				break
			}
			cands = append(cands, c...)
		}
		ends = append(ends, len(cands))
	}
	times := make([]time.Duration, len(cands))
	done := 0
	err := cfg.pool(names, ends, cands, func(i int, r bench.GridResult) error {
		times[i] = r.MeanIterTime()
		done = i + 1
		return nil
	})
	if err != nil {
		// Candidate done is the first that failed; its experiment stops
		// the run.
		stop, failed = owner(ends, done), err
	}
	lo := 0
	for e, p := range plans[:stop] {
		if p.search != nil {
			tuning.Pick(p.table, cands[lo:ends[e]], times[lo:ends[e]])
		}
		lo = ends[e]
	}
	return stop, failed
}

// pool runs jobs on c.Jobs workers, each on the fabric c.Topo selects,
// and hands each result to collect in job order, from the calling
// goroutine. ends[e] is one past the last job of the experiment names[e];
// a failed job's error carries that name.
func (c Config) pool(names []string, ends []int, jobs []bench.GridConfig, collect func(i int, r bench.GridResult) error) error {
	return sweep.Ordered(c.Jobs, len(jobs),
		func(i int) (bench.GridResult, error) {
			job := jobs[i]
			job.Topo = c.Topo
			r, err := bench.RunGrid(job)
			if err != nil {
				return r, fmt.Errorf("%s: %w", names[owner(ends, i)], err)
			}
			return r, nil
		}, collect)
}

// owner returns the experiment job i belongs to, given each experiment's
// end index.
func owner(ends []int, i int) int { return sort.SearchInts(ends, i+1) }
