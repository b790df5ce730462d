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
	"time"

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
	// Workers bounds the number of candidates run concurrently. Each
	// candidate is an independent deterministic simulation, so the
	// resulting table is byte-identical for any worker count. Zero or
	// negative selects GOMAXPROCS; 1 forces the serial path.
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

// Candidates validates cfg and lists its runs, each the overhead
// benchmark at one (parts, size) point under one (transport, QPs) design:
// points in sweep order (partition counts outer, sizes inner, unrealizable
// partitionings skipped), and at each point every power-of-two design
// whose transport count divides the partition count, in lexicographic
// order. A point's candidates are consecutive.
func Candidates(cfg SearchConfig) ([]bench.GridConfig, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []bench.GridConfig
	for _, parts := range cfg.UserParts {
		for _, size := range cfg.Sizes {
			if size%parts != 0 {
				continue // not a realizable partitioning
			}
			for transport := 1; parts%transport == 0; transport *= 2 {
				for qps := 1; qps <= min(transport, maxQPs); qps *= 2 {
					out = append(out, bench.GridConfig{
						Pattern: bench.P2P,
						Threads: parts,
						Bytes:   size,
						Warmup:  cfg.Warmup,
						Iters:   cfg.Iters,
						Opts: core.Options{
							Strategy:       core.StrategyPLogGP, // grouping mechanics; counts forced
							TransportParts: transport,
							QPs:            qps,
						},
					})
				}
			}
		}
	}
	return out, nil
}

// point is the table key a candidate measures.
func point(c bench.GridConfig) core.TuningKey {
	return core.TuningKey{UserParts: c.Threads, Bytes: c.Bytes}
}

// Pick records in table, for every point of cands, the design whose run
// took the least mean iteration time; times[i] is cands[i]'s. On equal
// times the lexicographically smallest (transport, QPs) wins, so the pick
// is independent of the order candidates ran in.
func Pick(table *core.TuningTable, cands []bench.GridConfig, times []time.Duration) {
	for i := 0; i < len(cands); {
		best := i
		j := i + 1
		for ; j < len(cands) && point(cands[j]) == point(cands[i]); j++ {
			c, b := cands[j].Opts, cands[best].Opts
			if times[j] < times[best] || (times[j] == times[best] &&
				(c.TransportParts < b.TransportParts || (c.TransportParts == b.TransportParts && c.QPs < b.QPs))) {
				best = j
			}
		}
		b := cands[best].Opts
		table.Set(point(cands[i]), core.TuningValue{Transport: b.TransportParts, QPs: b.QPs})
		i = j
	}
}

// Search runs the exhaustive sweep and returns the winning table.
// Candidates run concurrently on cfg.Workers goroutines (each is an
// independent deterministic simulation), but points are recorded — and
// Progress invoked — in the serial sweep's order, so the table is
// byte-identical for any worker count.
func Search(cfg SearchConfig) (*core.TuningTable, error) {
	cands, err := Candidates(cfg)
	if err != nil {
		return nil, err
	}
	table := core.NewTuningTable()
	times := make([]time.Duration, len(cands))
	first := 0 // the first candidate of the point being collected
	err = sweep.Ordered(cfg.Workers, len(cands),
		func(i int) (time.Duration, error) {
			res, err := bench.RunGrid(cands[i])
			if err != nil {
				return 0, fmt.Errorf("tuning: point (%d parts, %d B): %w", cands[i].Threads, cands[i].Bytes, err)
			}
			return res.MeanIterTime(), nil
		},
		func(i int, t time.Duration) error {
			times[i] = t
			if k := point(cands[i]); i+1 == len(cands) || point(cands[i+1]) != k {
				if cfg.Progress != nil {
					cfg.Progress(k.UserParts, k.Bytes)
				}
				Pick(table, cands[first:i+1], times[first:i+1])
				first = i + 1
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return table, nil
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
