// Package tuning implements the brute-force search behind the paper's
// Tuning Table Aggregator (Section IV-B): for each (user partition count,
// message size) point it runs the overhead benchmark across every
// power-of-two (transport partitions, queue pairs) candidate and records
// the fastest. The paper's search took just under 23 hours on two Niagara
// nodes; in the simulator the same sweep takes seconds, but the algorithm
// is identical — which is the point: it is the exhaustive baseline the
// PLogGP model is judged against.
package tuning

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sweep"
)

// SearchConfig bounds the exhaustive search.
type SearchConfig struct {
	// UserParts are the partition counts to tune (paper: powers of two).
	UserParts []int
	// Sizes are the aggregate message sizes to tune.
	Sizes []int
	// Warmup and Iters per candidate run. Zeros select 3 and 10 (scaled
	// down from the paper's 100 iterations; the simulator is noiseless,
	// so fewer repetitions identify the same argmin).
	Warmup int
	Iters  int
	// Progress, if non-nil, is called once per (parts, size) point.
	//
	// Concurrency contract: even when Workers > 1, Progress is invoked
	// from the single collector goroutine running Search, in submission
	// order (the same order the serial sweep visits points), immediately
	// before the point's result is recorded. Implementations therefore
	// need no locking of their own.
	Progress func(parts, size int)
	// Workers bounds the number of points evaluated concurrently. Each
	// point is an independent deterministic simulation, so the resulting
	// table is byte-identical for any worker count. Zero or negative
	// selects GOMAXPROCS; 1 forces the serial path.
	Workers int
}

// maxQPs caps the QP candidates.
const maxQPs = 16

func (c SearchConfig) withDefaults() SearchConfig {
	if c.Warmup == 0 {
		c.Warmup = 3
	}
	if c.Iters == 0 {
		c.Iters = 10
	}
	return c
}

// Validate reports configuration errors.
func (c SearchConfig) Validate() error {
	if len(c.UserParts) == 0 || len(c.Sizes) == 0 {
		return fmt.Errorf("tuning: empty search space")
	}
	for _, p := range c.UserParts {
		if p < 1 {
			return fmt.Errorf("tuning: bad partition count %d", p)
		}
	}
	for _, s := range c.Sizes {
		if s < 1 {
			return fmt.Errorf("tuning: bad size %d", s)
		}
	}
	return nil
}

// Search runs the exhaustive sweep and returns the winning table. Points
// are evaluated concurrently on cfg.Workers goroutines (each point is an
// independent deterministic simulation), but results are recorded — and
// Progress invoked — in the serial sweep's order, so the table is
// byte-identical for any worker count.
func Search(cfg SearchConfig) (*core.TuningTable, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type point struct{ parts, size int }
	var points []point
	for _, parts := range cfg.UserParts {
		for _, size := range cfg.Sizes {
			if size%parts != 0 {
				continue // not a realizable partitioning
			}
			points = append(points, point{parts, size})
		}
	}
	table := core.NewTuningTable()
	err := sweep.Ordered(cfg.Workers, len(points),
		func(i int) (core.TuningValue, error) {
			pt := points[i]
			best, err := searchPoint(cfg, pt.parts, pt.size)
			if err != nil {
				return core.TuningValue{}, fmt.Errorf("tuning: point (%d parts, %d B): %w", pt.parts, pt.size, err)
			}
			return best, nil
		},
		func(i int, best core.TuningValue) error {
			pt := points[i]
			if cfg.Progress != nil {
				cfg.Progress(pt.parts, pt.size)
			}
			table.Set(core.TuningKey{UserParts: pt.parts, Bytes: pt.size}, best)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// searchPoint evaluates every candidate at one point.
func searchPoint(cfg SearchConfig, parts, size int) (core.TuningValue, error) {
	var best core.TuningValue
	bestTime := int64(-1)
	for transport := 1; transport <= parts; transport *= 2 {
		for qps := 1; qps <= min(transport, maxQPs); qps *= 2 {
			res, err := bench.RunGrid(bench.GridConfig{
				Pattern: bench.P2P,
				Threads: parts,
				Bytes:   size,
				Warmup:  cfg.Warmup,
				Iters:   cfg.Iters,
				Opts: core.Options{
					Strategy:       core.StrategyPLogGP, // grouping mechanics; counts forced below
					TransportParts: transport,
					QPs:            qps,
				},
			})
			if err != nil {
				return core.TuningValue{}, err
			}
			t := int64(res.MeanIterTime())
			// Argmin with an explicit deterministic tie-break: on equal
			// mean time prefer the lexicographically smallest
			// (transport, qps), so serial and parallel sweeps — and any
			// future candidate enumeration order — pick the same entry.
			better := bestTime < 0 || t < bestTime
			if !better && t == bestTime {
				c := core.TuningValue{Transport: transport, QPs: qps}
				better = c.Transport < best.Transport ||
					(c.Transport == best.Transport && c.QPs < best.QPs)
			}
			if better {
				bestTime = t
				best = core.TuningValue{Transport: transport, QPs: qps}
			}
		}
	}
	return best, nil
}

// WriteTable serializes a table as "userParts bytes transport qps" lines.
func WriteTable(w io.Writer, t *core.TuningTable) error {
	var err error
	t.ForEach(func(k core.TuningKey, v core.TuningValue) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(w, "%d %d %d %d\n", k.UserParts, k.Bytes, v.Transport, v.QPs)
	})
	return err
}
