package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/fabric"
)

// metricDef is one reported metric. bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees, taken with
// tracing off. The two wall metrics are read at the reference host speed
// (see reference.go). BENCHMARK.json repeats this table; a test keeps them
// equal.
var endToEnd = []metricDef{
	{name: "norm_rounds_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "allocs_per_round", unit: "count", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_live_mib", unit: "MiB", better: "lower", bound: 0.05},
	{name: "round_us_p50", unit: "us", better: "lower", bound: 0.05},
	{name: "tail_us_p50", unit: "us", better: "lower", bound: 0.10},
	{name: "tail_us_p99", unit: "us", better: "lower", bound: 0.10},
}

// cpuLayers are the buckets of the CPU-profile attribution (see pprof.go).
var cpuLayers = []string{"sim", "sim.shard", "fabric", "ibv", "xport", "ucx", "core", "mpi", "cluster", "benchmark", "runtime"}

// perLayer are the traced run's metrics. The README maps each one to the
// end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "sim.events_per_round", unit: "count", better: "lower"},
		{name: "sim.events_per_s", unit: "1/s", better: "higher"},
		{name: "sim.allocs_per_event", unit: "count", better: "lower"},
		{name: "sim.sched_far_frac", unit: "ratio", better: "lower"},
		{name: "sim.shard.tmin_hops", unit: "count", better: "lower"},
		{name: "sim.shard.windows", unit: "count", better: "lower"},
		{name: "sim.shard.skip_frac", unit: "ratio", better: "higher"},
		{name: "sim.shard.stalls_per_hop", unit: "ratio", better: "lower"},
		{name: "sim.shard.cross_posts_per_round", unit: "count", better: "lower"},
		{name: "sim.shard.imbalance", unit: "ratio", better: "lower"},
		{name: "sim.shard.speedup_vs_serial", unit: "ratio", better: "higher"},
		{name: "fabric.msgs_per_round", unit: "count", better: "lower"},
		{name: "fabric.bytes_per_round", unit: "B", better: "lower"},
		{name: "fabric.link_busy_max", unit: "ratio", better: "lower"},
		{name: "fabric.queue_us_p99", unit: "us", better: "lower"},
		{name: "mpi.completions_per_round", unit: "count", better: "lower"},
		{name: "mpi.barrier_us_p50", unit: "us", better: "lower"},
		{name: "core.transport_parts", unit: "count", better: "lower"},
		{name: "core.pready_us_p50", unit: "us", better: "lower"},
		{name: "core.start_us_p50", unit: "us", better: "lower"},
		{name: "core.send_wait_us_p50", unit: "us", better: "lower"},
		{name: "core.adaptive_switches", unit: "count", better: "lower"},
		{name: "core.adaptive_regret_us_per_round", unit: "us", better: "lower"},
		{name: "app.arrival_spread_us_p50", unit: "us", better: "lower"},
		{name: "setup.world_s", unit: "s", better: "lower"},
		{name: "setup.engines_s", unit: "s", better: "lower"},
		{name: "setup.init_s", unit: "s", better: "lower"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: l + ".cpu_share", unit: "ratio", better: "lower"})
	}
	return append(defs,
		metricDef{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
		metricDef{name: "runtime.nproc_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
		metricDef{name: "host.rounds_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "host.reference_s", unit: "s", better: "lower"},
	)
}()

// value is one reported number with its unit and the count of samples it
// summarises.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentileUS returns the nearest-rank p-quantile of durations, in µs.
func percentileUS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / 1e3
}

// roundTimes returns the virtual length of every measured round.
func (r *rep) roundTimes() []time.Duration {
	var ds []time.Duration
	for round := r.w.warmup; round < r.w.warmup+r.w.rounds; round++ {
		ds = append(ds, r.roundTime(round))
	}
	return ds
}

// tails returns, for every request and measured round, the time from the
// last Pready call to the receiver observing completion.
func (r *rep) tails() []time.Duration {
	var ds []time.Duration
	for _, lg := range r.logs {
		for round := r.w.warmup; round < len(lg.done); round++ {
			ds = append(ds, lg.done[round].Sub(lg.lastPready[round]))
		}
	}
	return ds
}

// arrivalSpreads returns, per send request and measured round, the time
// from the sender leaving the round's barrier to its last Pready call.
func (r *rep) arrivalSpreads() []time.Duration {
	var ds []time.Duration
	for id, lg := range r.logs {
		start := r.ranks[r.links[id].src].start
		for round := r.w.warmup; round < len(lg.done); round++ {
			ds = append(ds, lg.lastPready[round].Sub(start[round]))
		}
	}
	return ds
}

// delta sums every rank's counter changes over the measured phase.
func (r *rep) delta() counters {
	var c counters
	for _, rs := range r.ranks {
		c = c.add(rs.ctr[1].sub(rs.ctr[0]))
	}
	return c
}

func (r *rep) roundsPerS() float64     { return float64(r.w.rounds) / r.measuredS }
func (r *rep) allocsPerRound() float64 { return float64(r.mallocs) / float64(r.w.rounds) }
func (r *rep) setupS() float64         { return r.worldS + r.enginesS + r.initS }

// medianOf returns the median of f over reps.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// referenceMedian is the median reference time over the repetitions.
func referenceMedian(reps []*rep) float64 {
	return medianOf(reps, func(r *rep) float64 { return r.refS })
}

// endToEndValues computes the end-to-end metrics from passing untraced
// repetitions: wall metrics are medians over them, virtual metrics come
// from the first (every passing repetition reproduces it exactly). Setup
// metrics are medians over the counted setup-only jobs. Both wall metrics
// are scaled to the reference host speed.
func endToEndValues(reps, setups []*rep) map[string]value {
	n := len(reps)
	ref := reps[0]
	tails := ref.tails()
	rounds := ref.roundTimes()
	// slow is how much slower than the reference host this host ran.
	slow := referenceMedian(reps) / referenceS
	return map[string]value{
		"norm_rounds_per_s": {Value: medianOf(reps, (*rep).roundsPerS) * slow, Samples: n},
		"allocs_per_round":  {Value: medianOf(reps, (*rep).allocsPerRound), Samples: n},
		"setup_s":           {Value: medianOf(setups, (*rep).setupS) / slow, Samples: len(setups)},
		"heap_live_mib":     {Value: medianOf(setups, func(r *rep) float64 { return float64(r.heapLive) / (1 << 20) }), Samples: len(setups)},
		"round_us_p50":      {Value: percentileUS(rounds, 0.50), Samples: len(rounds)},
		"tail_us_p50":       {Value: percentileUS(tails, 0.50), Samples: len(tails)},
		"tail_us_p99":       {Value: percentileUS(tails, 0.99), Samples: len(tails)},
	}
}

// layerInputs are the repetitions a per-layer report draws on.
type layerInputs struct {
	untraced []*rep            // passing untraced repetitions at GOMAXPROCS=1
	setups   []*rep            // counted setup-only jobs
	traced   []*rep            // profiled repetitions; the first also gives spans and counters
	allProcs *rep              // the same job at GOMAXPROCS = nproc
	oracle   *rep              // serial run of a sharded workload, nil otherwise
	cpu      map[string]uint64 // CPU-profile samples per layer over traced
}

// perLayerValues computes the per-layer metrics.
func perLayerValues(in layerInputs) map[string]value {
	t := in.traced[0]
	w := t.w
	rounds := float64(w.rounds)
	total := float64(w.warmup + w.rounds)
	d := t.delta()
	out := map[string]value{}
	set := func(name string, v float64, samples int) { out[name] = value{Value: v, Samples: samples} }

	set("sim.events_per_round", float64(d.events)/rounds, w.rounds)
	nu := len(in.untraced)
	set("sim.events_per_s", medianOf(in.untraced, func(r *rep) float64 { return float64(r.delta().events) / r.measuredS }), nu)
	set("sim.allocs_per_event", medianOf(in.untraced, func(r *rep) float64 { return float64(r.mallocs) / float64(r.delta().events) }), nu)
	ins := d.sched.Ring + d.sched.Bucket + d.sched.Far
	set("sim.sched_far_frac", ratio(float64(d.sched.Far), float64(ins)), int(ins))

	hops, windows, skip, stalls, cross, imbalance, speedup := 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0
	if st := t.shardStats; st != nil {
		hops, windows = float64(st.TminHops), float64(st.Windows)
		if hops > 0 {
			skip, stalls = float64(st.WindowsSkipped)/hops, float64(st.Stalls)/hops
		}
		cross = float64(st.CrossPosts) / total
		var sum, max float64
		for _, e := range st.Events {
			sum += float64(e)
			max = math.Max(max, float64(e))
		}
		if sum > 0 {
			imbalance = max / (sum / float64(len(st.Events)))
		}
	}
	if in.oracle != nil {
		speedup = in.oracle.measuredS / medianOf(in.untraced, func(r *rep) float64 { return r.measuredS })
	}
	set("sim.shard.tmin_hops", hops, 1)
	set("sim.shard.windows", windows, 1)
	set("sim.shard.skip_frac", skip, 1)
	set("sim.shard.stalls_per_hop", stalls, 1)
	set("sim.shard.cross_posts_per_round", cross, 1)
	set("sim.shard.imbalance", imbalance, 1)
	set("sim.shard.speedup_vs_serial", speedup, nu)

	set("fabric.msgs_per_round", float64(d.msgs)/rounds, w.rounds)
	set("fabric.bytes_per_round", float64(d.bytes)/rounds, w.rounds)
	busy, queue, links := linkSummary(t.linkStats, t.virtualEnd.Duration())
	set("fabric.link_busy_max", busy, links)
	set("fabric.queue_us_p99", queue, links)

	set("mpi.completions_per_round", float64(d.wc)/rounds, w.rounds)
	byName := t.spanDurations()
	set("mpi.barrier_us_p50", percentileUS(byName["mpi.Barrier"], 0.5), len(byName["mpi.Barrier"]))

	var parts, sends, switches, regret, adaptRounds float64
	for _, rs := range t.ranks {
		for i, tp := range rs.transport {
			parts += float64(tp)
			sends++
			if a := rs.adaptive[i]; a != nil {
				switches += float64(len(a.Switches) - 1)
				regret += float64(a.RegretNs)
				adaptRounds += float64(a.Rounds)
			}
		}
	}
	set("core.transport_parts", parts/sends, int(sends))
	starts := append(append([]time.Duration(nil), byName["Psend.Start"]...), byName["Precv.Start"]...)
	set("core.pready_us_p50", percentileUS(byName["Psend.Pready"], 0.5), len(byName["Psend.Pready"]))
	set("core.start_us_p50", percentileUS(starts, 0.5), len(starts))
	set("core.send_wait_us_p50", percentileUS(byName["Psend.Wait"], 0.5), len(byName["Psend.Wait"]))
	set("core.adaptive_switches", switches, int(sends))
	set("core.adaptive_regret_us_per_round", ratio(regret, adaptRounds)/1e3, int(adaptRounds))
	spreads := t.arrivalSpreads()
	set("app.arrival_spread_us_p50", percentileUS(spreads, 0.5), len(spreads))

	ns := len(in.setups)
	set("setup.world_s", medianOf(in.setups, func(r *rep) float64 { return r.worldS }), ns)
	set("setup.engines_s", medianOf(in.setups, func(r *rep) float64 { return r.enginesS }), ns)
	set("setup.init_s", medianOf(in.setups, func(r *rep) float64 { return r.initS }), ns)
	shares, samples := cpuShares(in.cpu)
	for _, l := range cpuLayers {
		set(l+".cpu_share", shares[l], samples)
	}
	set("runtime.gc_cpu_frac", medianOf(in.untraced, func(r *rep) float64 { return r.gcFrac }), nu)
	base := medianOf(in.untraced, (*rep).roundsPerS)
	set("runtime.nproc_ratio", in.allProcs.roundsPerS()/base, 1)
	set("trace.overhead_frac", 1-medianOf(in.traced, (*rep).roundsPerS)/base, len(in.traced))
	set("host.rounds_per_s", base, nu)
	set("host.reference_s", referenceMedian(in.untraced), nu)
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanDurations groups the measured rounds' span durations by name.
func (r *rep) spanDurations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, rs := range r.ranks {
		for _, s := range rs.spans {
			if s.round >= r.w.warmup && s.name != "round" {
				out[s.name] = append(out[s.name], s.to.Sub(s.from))
			}
		}
	}
	return out
}

// linkSummary returns the busiest link's utilisation over the run and the
// p99 queueing delay (µs) over every charge on every link; zeros for flat
// topologies, which keep no per-link cursors.
func linkSummary(stats []fabric.LinkStats, span time.Duration) (busyMax, queueP99 float64, links int) {
	if len(stats) == 0 || span <= 0 {
		return 0, 0, len(stats)
	}
	var all fabric.LinkStats
	for _, s := range stats {
		busyMax = math.Max(busyMax, float64(s.Busy)/float64(span))
		all.Charges += s.Charges
		if s.MaxQueue > all.MaxQueue {
			all.MaxQueue = s.MaxQueue
		}
		for b, c := range s.QueueHist {
			all.QueueHist[b] += c
		}
	}
	return busyMax, float64(all.QueuePercentile(0.99)) / 1e3, len(stats)
}
