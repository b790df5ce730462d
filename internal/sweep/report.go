package sweep

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
)

// BenchReport is the machine-readable record of one serial-vs-parallel
// sweep comparison (written as BENCH_parallel.json by cmd/partbench and
// cmd/tuningsearch) so the perf trajectory of the orchestration layer is
// tracked PR over PR.
type BenchReport struct {
	// Tool identifies the producing binary and workload, e.g.
	// "tuningsearch" or "partbench fig8".
	Tool string `json:"tool"`
	// Provider names the transport backend the workload ran over
	// ("verbs", "ucx", "shm"); empty in records predating the SPI.
	Provider string `json:"provider,omitempty"`
	// GOMAXPROCS is the core budget the parallel pass ran under.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the -j value of the parallel pass.
	Workers int `json:"workers"`
	// SerialSeconds and ParallelSeconds are wall-clock times of the two
	// passes over the identical workload. When only a single pass ran
	// (one worker or one core — see NewSinglePassReport) both record that
	// one pass.
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	// Speedup is SerialSeconds / ParallelSeconds. It is null when the
	// comparison would be serial-vs-serial (one worker or one core):
	// timing two identical serial passes measures nothing.
	Speedup *float64 `json:"speedup"`
	// Identical reports whether the parallel pass produced byte-identical
	// output to the serial pass.
	Identical bool `json:"identical"`
	// Events is the number of simulation events executed during the
	// parallel pass; EventsPerSec divides by its wall time.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent is heap allocations per simulation event during the
	// parallel pass (runtime.MemStats.Mallocs delta over events) — the
	// metric the sim event free list is judged on.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Warning flags methodologically meaningless comparisons — set when
	// the parallel pass effectively ran serial (one worker or one core),
	// in which case Speedup measures nothing.
	Warning string `json:"warning,omitempty"`
	// CoreHash fingerprints the internal/core sources the record was
	// produced against (stamped by make via -corehash); bench-compare
	// warns when a committed record's hash no longer matches the tree.
	// Empty in records predating the tracking.
	CoreHash string `json:"core_hash,omitempty"`
}

// Clock supplies wall-clock timestamps for benchmark measurement. This
// package is reachable from simulation code, which must stay
// deterministic (partlint's simdeterminism analyzer forbids time.Now
// here), so the CLI binaries inject time.Now at the process boundary.
type Clock func() time.Time

// Measurement captures the counters needed around one benchmark pass.
type Measurement struct {
	now     Clock
	start   time.Time
	events  uint64
	mallocs uint64
	sched   sim.SchedStats
}

// StartMeasure snapshots wall clock, event, allocation, and
// scheduler-placement counters. The clock is retained for Stop.
func StartMeasure(now Clock) Measurement {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Measurement{
		now:     now,
		start:   now(),
		events:  sim.TotalEvents(),
		mallocs: ms.Mallocs,
		sched:   sim.TotalSchedStats(),
	}
}

// Stop returns wall seconds, events executed, and allocations since
// StartMeasure.
func (m Measurement) Stop() (seconds float64, events, allocs uint64) {
	seconds = m.now().Sub(m.start).Seconds()
	events = sim.TotalEvents() - m.events
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return seconds, events, ms.Mallocs - m.mallocs
}

// SchedDelta reports the scheduler tier-placement counters accumulated
// since StartMeasure. MaxBucket is the process-wide high-water mark, not
// a delta (a maximum has no meaningful difference).
func (m Measurement) SchedDelta() sim.SchedStats {
	s := sim.TotalSchedStats()
	return sim.SchedStats{
		Ring:      s.Ring - m.sched.Ring,
		Bucket:    s.Bucket - m.sched.Bucket,
		Far:       s.Far - m.sched.Far,
		MaxBucket: s.MaxBucket,
	}
}

// NewReport assembles a BenchReport from the two passes' measurements.
func NewReport(tool string, workers int, serialSec float64, parSec float64, parEvents, parAllocs uint64, identical bool) BenchReport {
	r := BenchReport{
		Tool:            tool,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         Jobs(workers),
		SerialSeconds:   serialSec,
		ParallelSeconds: parSec,
		Identical:       identical,
		Events:          parEvents,
	}
	if parSec > 0 {
		speedup := serialSec / parSec
		r.Speedup = &speedup
		r.EventsPerSec = float64(parEvents) / parSec
	}
	if parEvents > 0 {
		r.AllocsPerEvent = float64(parAllocs) / float64(parEvents)
	}
	r.Warning = singleCoreWarning(r.Workers)
	return r
}

// NewSinglePassReport assembles a BenchReport when the serial-vs-parallel
// comparison was skipped: with one worker or one core the second pass
// would time the identical serial workload again, so the single measured
// pass fills both columns, Speedup is null, and Identical is trivially
// true (a pass is byte-identical to itself).
func NewSinglePassReport(tool string, workers int, sec float64, events, allocs uint64) BenchReport {
	r := BenchReport{
		Tool:            tool,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         Jobs(workers),
		SerialSeconds:   sec,
		ParallelSeconds: sec,
		Identical:       true,
		Events:          events,
	}
	if sec > 0 {
		r.EventsPerSec = float64(events) / sec
	}
	if events > 0 {
		r.AllocsPerEvent = float64(allocs) / float64(events)
	}
	r.Warning = singleCoreWarning(r.Workers)
	return r
}

// singleCoreWarning flags methodologically meaningless comparisons: one
// worker or one core means speedup cannot measure parallelism.
func singleCoreWarning(workers int) string {
	switch {
	case workers == 1:
		return "parallel pass ran with workers=1: speedup is serial-vs-serial and meaningless"
	case runtime.GOMAXPROCS(0) == 1:
		return "GOMAXPROCS=1: workers share one core, speedup does not measure parallelism"
	}
	return ""
}

// HotpathReport is the machine-readable record of the single-engine event
// hot path (written as BENCH_hotpath.json by cmd/partbench): a fixed
// serial workload on one engine at a time, compared against the recorded
// pre-optimization baseline so the events/sec and allocs/event trajectory
// is tracked PR over PR.
type HotpathReport struct {
	// Tool identifies the producing binary and workload.
	Tool string `json:"tool"`
	// Workload names the fixed single-engine workload measured.
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Seconds and Events cover the measured pass.
	Seconds        float64 `json:"seconds"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// BaselineEventsPerSec/BaselineAllocsPerEvent are the pre-optimization
	// numbers (the PR-1 BENCH_parallel.json record) the current run is
	// judged against; EventsPerSecRatio is EventsPerSec over the baseline.
	BaselineEventsPerSec   float64 `json:"baseline_events_per_sec"`
	BaselineAllocsPerEvent float64 `json:"baseline_allocs_per_event"`
	EventsPerSecRatio      float64 `json:"events_per_sec_ratio"`
	// Scheduler names the event-queue implementation that produced the
	// run (sim.SchedulerName), so records from different queue designs
	// are distinguishable.
	Scheduler string `json:"scheduler,omitempty"`
	// The sched_* fields break down where event insertions landed in the
	// calendar queue: the same-instant ring, the near-window buckets, or
	// the far-future heap (the queue's overflow tier), plus the largest
	// single-tick bucket chain observed.
	SchedRingEvents   uint64 `json:"sched_ring_events,omitempty"`
	SchedBucketEvents uint64 `json:"sched_bucket_events,omitempty"`
	SchedFarEvents    uint64 `json:"sched_far_events,omitempty"`
	SchedMaxBucketLen int    `json:"sched_max_bucket_len,omitempty"`
	// CoreHash fingerprints the internal/core sources the record was
	// produced against (see BenchReport.CoreHash).
	CoreHash string `json:"core_hash,omitempty"`
}

// NewHotpathReport assembles a HotpathReport from one measured pass.
func NewHotpathReport(tool, workload string, seconds float64, events, allocs uint64, sched sim.SchedStats, baseEvtSec, baseAllocs float64) HotpathReport {
	r := HotpathReport{
		Tool:                   tool,
		Workload:               workload,
		GOMAXPROCS:             runtime.GOMAXPROCS(0),
		Seconds:                seconds,
		Events:                 events,
		BaselineEventsPerSec:   baseEvtSec,
		BaselineAllocsPerEvent: baseAllocs,
		Scheduler:              sim.SchedulerName,
		SchedRingEvents:        sched.Ring,
		SchedBucketEvents:      sched.Bucket,
		SchedFarEvents:         sched.Far,
		SchedMaxBucketLen:      sched.MaxBucket,
	}
	if seconds > 0 {
		r.EventsPerSec = float64(events) / seconds
	}
	if events > 0 {
		r.AllocsPerEvent = float64(allocs) / float64(events)
	}
	if baseEvtSec > 0 {
		r.EventsPerSecRatio = r.EventsPerSec / baseEvtSec
	}
	return r
}

// ReadHotpathFile parses a previously written hot-path report, so a new
// run can print its delta against the committed record before
// overwriting it.
func ReadHotpathFile(path string) (HotpathReport, error) {
	var r HotpathReport
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, err
	}
	return r, nil
}

// WriteHotpathFile writes the report as indented JSON to path.
func WriteHotpathFile(path string, r HotpathReport) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// PdesShardRun is one measured pass of the PDES scaling workload at a
// fixed shard count. The first run in a PdesReport is the serial oracle
// (Shards = 1); every sharded pass is validated byte-identical against it
// and reports its wall-clock speedup over it.
type PdesShardRun struct {
	// Shards is the conservative-PDES shard count of this pass (1 =
	// serial engine, no shard runtime).
	Shards int `json:"shards"`
	// Seconds and Events cover the measured pass; EventsPerSec divides.
	Seconds      float64 `json:"seconds"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is the serial pass's wall time over this pass's.
	Speedup float64 `json:"speedup_vs_serial"`
	// AllocsPerEvent is heap allocations per event — the shard advance
	// loop is required to add none over the serial engine.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Identical reports whether this pass produced per-iteration times
	// byte-identical to the serial pass (trivially true for the serial
	// pass itself).
	Identical bool `json:"identical_to_serial"`
	// Windows is the number of fleet dispatch episodes; TminHops counts
	// every barrier-to-barrier synchronization hop including inline solo
	// hops, and WindowsSkipped is the difference — hops that reused the
	// hot fleet or ran inline instead of costing a park/wake dispatch
	// round. WindowSyncStalls counts hops
	// in which a shard with reachable work fired no event (pure barrier
	// overhead for that shard), and AvgWindowOccupancy is the mean number
	// of events executed per hop.
	Windows            uint64  `json:"windows,omitempty"`
	TminHops           uint64  `json:"tmin_hops,omitempty"`
	WindowsSkipped     uint64  `json:"windows_skipped,omitempty"`
	AvgWindowOccupancy float64 `json:"avg_window_occupancy,omitempty"`
	WindowSyncStalls   uint64  `json:"window_sync_stalls,omitempty"`
	// CrossShardPosts counts events exchanged through mailboxes.
	CrossShardPosts uint64 `json:"cross_shard_posts,omitempty"`
	// PerShardEvents is the executed-event count per shard — the load
	// balance the contiguous node partitioning achieves.
	PerShardEvents []uint64 `json:"per_shard_events,omitempty"`
}

// PdesReport is the machine-readable record of the conservative-PDES
// scaling benchmark (written as BENCH_pdes.json by cmd/partbench): a
// fixed 1024-rank Sweep3D workload run on the serial engine and then at
// increasing shard counts, each sharded pass validated byte-identical to
// the serial one.
type PdesReport struct {
	Tool string `json:"tool"`
	// Workload names the fixed workload measured.
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// LookaheadNs is the LogGP lookahead λ (the fabric's minimum
	// cross-node latency) bounding every synchronization window.
	LookaheadNs int64 `json:"lookahead_ns"`
	// Runs holds one entry per shard count, serial first.
	Runs []PdesShardRun `json:"runs"`
	// Warning flags methodologically meaningless speedups — set when the
	// process has one core, so shards time-slice instead of running in
	// parallel.
	Warning string `json:"warning,omitempty"`
}

// NewPdesRun assembles one PdesShardRun from a measured pass.
// serialSec ≤ 0 marks the pass itself as the serial oracle.
func NewPdesRun(shards int, sec float64, events, allocs uint64, serialSec float64, identical bool) PdesShardRun {
	r := PdesShardRun{
		Shards:    shards,
		Seconds:   sec,
		Events:    events,
		Identical: identical,
	}
	if sec > 0 {
		r.EventsPerSec = float64(events) / sec
		if serialSec > 0 {
			r.Speedup = serialSec / sec
		} else {
			r.Speedup = 1
		}
	}
	if events > 0 {
		r.AllocsPerEvent = float64(allocs) / float64(events)
	}
	return r
}

// ReadPdesFile parses a previously written PDES scaling report.
func ReadPdesFile(path string) (PdesReport, error) {
	var r PdesReport
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, err
	}
	return r, nil
}

// WritePdesFile writes the report as indented JSON to path.
func WritePdesFile(path string, r PdesReport) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// WriteReportFile writes the report as indented JSON to path.
func WriteReportFile(path string, r BenchReport) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
