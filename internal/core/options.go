package core

import (
	"fmt"
	"sort"
	"time"
)

// Strategy selects the send-side aggregation design (paper Section IV).
type Strategy int

const (
	// StrategyBaseline sends one message per user partition through the
	// UCX-like layer — the Open MPI `part_persist` stand-in.
	StrategyBaseline Strategy = iota
	// StrategyTuningTable aggregates per an offline brute-force table.
	StrategyTuningTable
	// StrategyPLogGP aggregates per the PLogGP model's optimal transport
	// partition count.
	StrategyPLogGP
	// StrategyTimerPLogGP is StrategyPLogGP with the δ-timer early-bird
	// mechanism.
	StrategyTimerPLogGP
	// StrategyAdaptive starts from the PLogGP plan and re-selects the
	// aggregation design between rounds from observed Pready arrival
	// statistics (see adaptive.go).
	StrategyAdaptive
)

func (s Strategy) String() string {
	switch s {
	case StrategyBaseline:
		return "baseline"
	case StrategyTuningTable:
		return "tuning-table"
	case StrategyPLogGP:
		return "ploggp"
	case StrategyTimerPLogGP:
		return "timer-ploggp"
	case StrategyAdaptive:
		return "adaptive"
	default:
		return "unknown strategy"
	}
}

// ParseStrategy maps a strategy name (as String prints, plus the "timer"
// shorthand) back to its value — the CLI-flag inverse of String.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "baseline":
		return StrategyBaseline, nil
	case "tuning-table":
		return StrategyTuningTable, nil
	case "ploggp":
		return StrategyPLogGP, nil
	case "timer-ploggp", "timer":
		return StrategyTimerPLogGP, nil
	case "adaptive":
		return StrategyAdaptive, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q (want baseline, tuning-table, ploggp, timer-ploggp, or adaptive)", name)
	}
}

// TuningKey indexes the brute-force tuning table exactly as Section IV-B
// describes: "a hash table where the key is the tuple (number of user
// partitions, message size)".
type TuningKey struct {
	UserParts int
	Bytes     int
}

// TuningValue is "a tuple (number of transport partitions, number of QPs)".
type TuningValue struct {
	Transport int
	QPs       int
}

// TuningTable maps configurations to their best measured aggregation.
// Lookups floor the message size to the nearest measured entry for the
// same partition count.
type TuningTable struct {
	entries map[TuningKey]TuningValue
	// sizesByParts caches the sorted measured sizes per partition count.
	sizesByParts map[int][]int
}

// NewTuningTable returns an empty table.
func NewTuningTable() *TuningTable {
	return &TuningTable{
		entries:      make(map[TuningKey]TuningValue),
		sizesByParts: make(map[int][]int),
	}
}

// Set records the best configuration for a key.
func (t *TuningTable) Set(key TuningKey, val TuningValue) {
	if _, ok := t.entries[key]; !ok {
		s := t.sizesByParts[key.UserParts]
		s = append(s, key.Bytes)
		sort.Ints(s)
		t.sizesByParts[key.UserParts] = s
	}
	t.entries[key] = val
}

// Len returns the number of entries.
func (t *TuningTable) Len() int { return len(t.entries) }

// ForEach visits every entry in deterministic order (by partition count,
// then size).
func (t *TuningTable) ForEach(fn func(TuningKey, TuningValue)) {
	var parts []int
	for p := range t.sizesByParts {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		for _, s := range t.sizesByParts[p] {
			key := TuningKey{UserParts: p, Bytes: s}
			fn(key, t.entries[key])
		}
	}
}

// Lookup returns the configuration for (userParts, bytes), flooring bytes
// to the nearest measured size. The boolean is false when no entry exists
// for the partition count at all.
func (t *TuningTable) Lookup(userParts, bytes int) (TuningValue, bool) {
	sizes := t.sizesByParts[userParts]
	if len(sizes) == 0 {
		return TuningValue{}, false
	}
	i := sort.SearchInts(sizes, bytes+1) - 1
	if i < 0 {
		i = 0
	}
	return t.entries[TuningKey{UserParts: userParts, Bytes: sizes[i]}], true
}

// Options configures a partitioned request. The zero value selects the
// PLogGP aggregator with the Niagara-measured model and the paper's 4 ms
// modelling delay.
type Options struct {
	// Strategy picks the aggregation design. Both sides of a match should
	// agree; the sender's choice is authoritative.
	Strategy Strategy
	// Table is required for StrategyTuningTable.
	Table *TuningTable
	// Delta is the δ of the timer-based aggregator. Zero selects 35 µs,
	// the minimum the paper estimates for 32 partitions in Figure 12.
	Delta time.Duration
	// TransportParts overrides the strategy's transport partition count
	// (used by the Figure 6 sweep). It must divide the user partition
	// count.
	TransportParts int
	// QPs overrides the queue pair count (used by the Figure 7 sweep).
	QPs int
	// MaxOutstandingPerQP overrides the per-QP in-flight RDMA window
	// (zero keeps the hardware's 16). Exposed for the window ablation.
	MaxOutstandingPerQP int
	// UseInline posts transport partitions that fit the QP's inline limit
	// with IBV_SEND_INLINE. The paper leaves inlining/BlueFlame to future
	// work and keeps it off; enable it to run that study.
	UseInline bool

	// AdaptiveWindow is the number of completed rounds the adaptive
	// strategy's observation ring holds (zero selects 8).
	AdaptiveWindow int
	// AdaptiveHysteresisPct is the relative improvement a candidate design
	// must show over the incumbent before the switcher moves (zero
	// selects 10).
	AdaptiveHysteresisPct float64
	// AdaptiveDwell is the minimum number of rounds between switches
	// (zero selects 4).
	AdaptiveDwell int
	// AdaptiveWarmup is the number of completed rounds before the first
	// switch is allowed (zero selects AdaptiveWindow).
	AdaptiveWarmup int
}

// Plan is the resolved aggregation scheme for one request.
type Plan struct {
	// Transport is the number of transport partitions (contiguous,
	// aligned groups of user partitions).
	Transport int
	// GroupSize is user partitions per transport partition.
	GroupSize int
	// QPs is the number of queue pairs the groups are spread across.
	QPs int
}

// groupOf returns the transport partition containing user partition i.
func (pl Plan) groupOf(i int) int { return i / pl.GroupSize }

// qpOf returns the queue pair index serving transport partition g.
func (pl Plan) qpOf(g int) int { return g % pl.QPs }

// resolvePlan computes the aggregation plan for a send request.
func resolvePlan(opts Options, userParts, bytes int) (Plan, error) {
	if userParts < 1 {
		return Plan{}, fmt.Errorf("core: need at least one partition, got %d", userParts)
	}
	transport := opts.TransportParts
	if transport == 0 {
		switch opts.Strategy {
		case StrategyBaseline:
			transport = userParts
		case StrategyTuningTable:
			if opts.Table == nil {
				return Plan{}, fmt.Errorf("core: StrategyTuningTable requires Options.Table")
			}
			val, ok := opts.Table.Lookup(userParts, bytes)
			if !ok {
				return Plan{}, fmt.Errorf("core: tuning table has no entry for %d partitions", userParts)
			}
			transport = val.Transport
			if opts.QPs == 0 {
				opts.QPs = val.QPs
			}
		case StrategyPLogGP, StrategyTimerPLogGP, StrategyAdaptive:
			transport = defaultModel().OptimalTransport(bytes, userParts, modelDelay)
		default:
			return Plan{}, fmt.Errorf("core: unknown strategy %d", opts.Strategy)
		}
	}
	if transport < 1 || transport > userParts {
		return Plan{}, fmt.Errorf("core: transport partitions %d outside [1, %d]", transport, userParts)
	}
	// Groups are contiguous and aligned (Section IV-C): the transport
	// count must divide the user partition count; model output is a power
	// of two, so halve until it divides.
	for userParts%transport != 0 {
		transport /= 2
	}

	qps := opts.QPs
	if qps == 0 {
		qps = transport
		if qps > maxAutoQPs {
			qps = maxAutoQPs
		}
	}
	if qps < 1 {
		return Plan{}, fmt.Errorf("core: QP count %d must be positive", qps)
	}
	if qps > transport {
		// More QPs than work requests would idle; clamp.
		qps = transport
	}
	return Plan{Transport: transport, GroupSize: userParts / transport, QPs: qps}, nil
}

// delta returns the effective δ for the timer strategy.
func (o Options) delta() time.Duration {
	if o.Delta != 0 {
		return o.Delta
	}
	return 35 * time.Microsecond
}
