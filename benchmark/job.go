package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// repOptions selects how one repetition runs.
type repOptions struct {
	// shards overrides the workload's shard count; the serial oracle of a
	// sharded workload runs with 1.
	shards int
	// traced records virtual-time spans around every call into the
	// program and CPU-profiles the measured phase.
	traced bool
	// setupOnly ends the job at the setup barrier: a sample of setup time
	// alone.
	setupOnly bool
}

// rep is one repetition: a fresh job from mpi.NewWorld to the barrier that
// closes the last measured round, and everything measured on the way.
type rep struct {
	w    *workload
	seed uint64
	opt  repOptions
	err  error

	links []link
	ranks []*rankState
	logs  []reqLog

	// Wall-clock phases in seconds: setup (world, engines, request init up
	// to rank 0 leaving the first barrier) and the measured rounds.
	worldS, enginesS, initS, measuredS float64
	// refS is the wall time of the reference job run right after the
	// repetition (see reference.go); 0 when none ran.
	refS float64
	// heapLive is the growth of HeapAlloc over setup, each end read after
	// a forced GC: what the program holds for the job, without the
	// application buffers.
	heapLive int64
	// mallocs and the GC share of CPU time cover the measured phase.
	mallocs uint64
	gcFrac  float64
	marks   wallMarks

	// Counters read after the run.
	shardStats *sim.ShardStats
	linkStats  []fabric.LinkStats
	virtualEnd sim.Time

	fingerprint uint64
}

// rankState is everything one rank records. Only the rank's own procs
// (its body and its compute threads, all on the rank's shard) touch it.
type rankState struct {
	id     int
	sends  []*sendReq
	recvs  []*recvReq
	leader bool // first rank on its engine; reads the engine's counters
	round  int  // current round, read by the rank's threads
	start  []sim.Time
	err    error
	bad    int
	digest uint64
	ctr    [2]counters // at the start and the end of the measured phase
	spans  []span

	transport []int
	adaptive  []*core.AdaptiveStats
}

type sendReq struct {
	id  int
	ps  *core.Psend
	buf []byte
}

type recvReq struct {
	id  int
	pr  *core.Precv
	buf []byte
}

// reqLog holds one request's virtual timestamps per round. The sending rank
// writes started and lastPready, the receiving rank writes done, so no slot
// is written from two shards.
type reqLog struct {
	started, lastPready, done []sim.Time
}

// counters is a snapshot of the program's public counters. Engine counters
// are read by the engine's leader rank, the rest by each rank for itself.
type counters struct {
	events uint64
	sched  sim.SchedStats
	wc     int64
	msgs   int64
	bytes  int64
}

func (c counters) sub(o counters) counters {
	return counters{
		events: c.events - o.events,
		sched: sim.SchedStats{
			Ring:   c.sched.Ring - o.sched.Ring,
			Bucket: c.sched.Bucket - o.sched.Bucket,
			Far:    c.sched.Far - o.sched.Far,
		},
		wc:    c.wc - o.wc,
		msgs:  c.msgs - o.msgs,
		bytes: c.bytes - o.bytes,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		events: c.events + o.events,
		sched: sim.SchedStats{
			Ring:   c.sched.Ring + o.sched.Ring,
			Bucket: c.sched.Bucket + o.sched.Bucket,
			Far:    c.sched.Far + o.sched.Far,
		},
		wc:    c.wc + o.wc,
		msgs:  c.msgs + o.msgs,
		bytes: c.bytes + o.bytes,
	}
}

// wallMarks are rank 0's wall-clock and runtime readings at the phase
// boundaries.
type wallMarks struct {
	setupEnd, start, end time.Time
	mallocs              [2]uint64
	gcCPU, allCPU        [2]float64
	profile              bytes.Buffer
	profErr              error
}

// span is one call into the program, in virtual time. Its parent is the
// round span of (rank, req, round); req is -1 for rank-level spans.
type span struct {
	name     string
	req, tid int
	round    int
	from, to sim.Time
}

// Span thread ids: rank-level spans on 0, request-level spans on
// 1+request slot, compute-thread spans on threadTID+thread.
const threadTID = 1000

// runRep runs one repetition. A panic anywhere in it fails the repetition.
func runRep(w *workload, seed uint64, opt repOptions) (r *rep) {
	r = &rep{w: w, seed: seed, opt: opt, links: w.links()}
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("panic: %v", v)
		}
	}()
	r.err = r.run()
	if r.err == nil && !opt.setupOnly {
		r.err = r.check()
	}
	return r
}

func (r *rep) run() error {
	w := r.w
	total := w.warmup + w.rounds
	r.logs = make([]reqLog, len(r.links))
	for i := range r.logs {
		r.logs[i] = reqLog{
			started:    make([]sim.Time, total),
			lastPready: make([]sim.Time, total),
			done:       make([]sim.Time, total),
		}
	}
	r.ranks = make([]*rankState, w.ranks())
	for i := range r.ranks {
		r.ranks[i] = &rankState{id: i, start: make([]sim.Time, total)}
	}
	// The application's buffers are the benchmark's, not the program's:
	// they are allocated and filled before the setup clock starts.
	for id, l := range r.links {
		sbuf := make([]byte, w.bytes)
		fillPattern(sbuf, r.seed, id)
		r.ranks[l.src].sends = append(r.ranks[l.src].sends, &sendReq{id: id, buf: sbuf})
		r.ranks[l.dst].recvs = append(r.ranks[l.dst].recvs, &recvReq{id: id, buf: make([]byte, w.bytes)})
	}

	cfg := cluster.NiagaraConfig(w.ranks())
	cfg.Shards = r.opt.shards
	if w.topo != "" {
		topo, err := fabric.ParseTopology(w.topo)
		if err != nil {
			return err
		}
		cfg.Fabric.Topo = topo
	}

	if r.opt.traced {
		// A failed repetition may never reach the end of its measured
		// phase; stopping an inactive profile is a no-op.
		defer pprof.StopCPUProfile()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := int64(ms.HeapAlloc)
	t0 := time.Now()
	world := mpi.NewWorld(mpi.Config{Cluster: cfg})
	t1 := time.Now()
	engines := make([]*core.Engine, world.Size())
	for i := range engines {
		eng, err := core.NewEngine(world.Rank(i), "verbs")
		if err != nil {
			return err
		}
		engines[i] = eng
	}
	t2 := time.Now()
	seen := map[*sim.Engine]bool{}
	for i, rs := range r.ranks {
		if e := world.Rank(i).Engine(); !seen[e] {
			seen[e], rs.leader = true, true
		}
	}

	runErr := world.Run(func(p *sim.Proc, rk *mpi.Rank) {
		rs := r.ranks[rk.ID()]
		if err := r.rankBody(p, rk, engines[rk.ID()], rs); err != nil {
			rs.err = fmt.Errorf("rank %d: %w", rk.ID(), err)
		}
	})
	for _, rs := range r.ranks {
		if rs.err != nil {
			return rs.err
		}
	}
	if runErr != nil {
		return runErr
	}
	if r.marks.profErr != nil {
		return r.marks.profErr
	}

	m := &r.marks
	r.heapLive -= heapBase
	r.worldS = t1.Sub(t0).Seconds()
	r.enginesS = t2.Sub(t1).Seconds()
	r.initS = m.setupEnd.Sub(t2).Seconds()
	for _, rs := range r.ranks {
		// The requests reach the whole simulation. Kept repetitions hold
		// only their measurements, so a finished job costs no memory or GC
		// work in the repetitions after it.
		rs.sends, rs.recvs = nil, nil
	}
	if r.opt.setupOnly {
		return nil
	}
	r.measuredS = m.end.Sub(m.start).Seconds()
	r.mallocs = m.mallocs[1] - m.mallocs[0]
	if cpu := m.allCPU[1] - m.allCPU[0]; cpu > 0 {
		r.gcFrac = (m.gcCPU[1] - m.gcCPU[0]) / cpu
	}
	if set := world.Cluster().ShardSet(); set != nil {
		st := set.Stats()
		r.shardStats = &st
	}
	r.linkStats = world.Cluster().Fabric.LinkStats()
	for _, rs := range r.ranks {
		if t := world.Rank(rs.id).Engine().Now(); t > r.virtualEnd {
			r.virtualEnd = t
		}
	}
	return nil
}

// rankBody is one rank's program: init its requests, pass the setup
// barrier, run the warm-up and measured rounds, and pass a closing barrier.
func (r *rep) rankBody(p *sim.Proc, rk *mpi.Rank, eng *core.Engine, rs *rankState) error {
	w := r.w
	opts := core.Options{Strategy: w.strategy}
	for _, s := range rs.sends {
		l := r.links[s.id]
		ps, err := eng.PsendInit(p, s.buf, w.threads, l.dst, l.tag, opts)
		if err != nil {
			return err
		}
		s.ps = ps
	}
	for _, rv := range rs.recvs {
		l := r.links[rv.id]
		pr, err := eng.PrecvInit(p, rv.buf, w.threads, l.src, l.tag, opts)
		if err != nil {
			return err
		}
		rv.pr = pr
	}
	rk.Barrier(p)
	if rs.id == 0 {
		r.setupDone()
	}
	if r.opt.setupOnly {
		return nil
	}

	// The group, the arrival scratch and the thread bodies are built once
	// and reused every round, as an application's thread pool would be.
	g := sim.NewGroup(p.Engine())
	arrivals := make([]time.Duration, w.threads)
	var pattern *trace.ArrivalPattern
	if w.spread > 0 {
		pattern = (&trace.ArrivalPattern{Kind: w.pattern, Seed: r.seed, Spread: w.spread}).Instance(rs.id)
	}
	threads := make([]func(*sim.Proc), w.threads)
	for t := range threads {
		t := t
		threads[t] = func(tp *sim.Proc) {
			defer g.Done()
			if err := r.thread(tp, rk, rs, t, arrivals[t]); err != nil && rs.err == nil {
				rs.err = err
			}
		}
	}
	computes := w.computes(len(rs.sends))

	waitRecvs := func(round int) error {
		for i, rv := range rs.recvs {
			at := p.Now()
			if err := rv.pr.Wait(p); err != nil {
				return err
			}
			r.logs[rv.id].done[round] = p.Now()
			r.span(rs, "Precv.Wait", rv.id, 1+len(rs.sends)+i, round, at, p.Now())
			r.span(rs, "round", rv.id, 1+len(rs.sends)+i, round, rs.start[round], p.Now())
			rs.bad += badStamps(rv.buf, w.threads, r.seed, rv.id, round)
		}
		return nil
	}

	total := w.warmup + w.rounds
	for round := 0; round < total; round++ {
		rs.round = round
		entered := p.Now()
		rk.Barrier(p)
		rs.start[round] = p.Now()
		r.span(rs, "mpi.Barrier", -1, 0, round, entered, p.Now())
		if round == w.warmup {
			r.phase(p, rk, rs, 0)
		}
		for i, rv := range rs.recvs {
			at := p.Now()
			if err := rv.pr.Start(p); err != nil {
				return err
			}
			r.span(rs, "Precv.Start", rv.id, 1+len(rs.sends)+i, round, at, p.Now())
		}
		for i, s := range rs.sends {
			at := p.Now()
			if err := s.ps.Start(p); err != nil {
				return err
			}
			r.logs[s.id].started[round] = p.Now()
			r.span(rs, "Psend.Start", s.id, 1+i, round, at, p.Now())
		}
		if w.shape == shapeSweep {
			if err := waitRecvs(round); err != nil {
				return err
			}
		}
		if computes {
			if pattern != nil {
				pattern.Delays(round, arrivals)
			}
			for t := range threads {
				g.Add(1)
				p.Engine().Spawn("thread", threads[t])
			}
			g.Wait(p)
			if rs.err != nil {
				return rs.err
			}
		}
		if w.shape != shapeSweep {
			if err := waitRecvs(round); err != nil {
				return err
			}
		}
		for i, s := range rs.sends {
			at := p.Now()
			if err := s.ps.Wait(p); err != nil {
				return err
			}
			r.span(rs, "Psend.Wait", s.id, 1+i, round, at, p.Now())
			r.span(rs, "round", s.id, 1+i, round, rs.start[round], p.Now())
		}
		r.span(rs, "round", -1, 0, round, entered, p.Now())
	}
	rk.Barrier(p)
	r.phase(p, rk, rs, 1)

	d := newDigest()
	for _, rv := range rs.recvs {
		d.bytes(rv.buf)
	}
	rs.digest = d.sum()
	for _, s := range rs.sends {
		rs.transport = append(rs.transport, s.ps.Plan().Transport)
		rs.adaptive = append(rs.adaptive, s.ps.AdaptiveStats())
	}
	return nil
}

// thread is one compute thread's round: compute, stamp its partition of
// every send buffer, and mark it ready.
func (r *rep) thread(tp *sim.Proc, rk *mpi.Rank, rs *rankState, t int, arrival time.Duration) error {
	w := r.w
	round := rs.round
	cpu, idle := w.threadDelay(r.seed, rs.id, round, t, arrival)
	if cpu > 0 {
		at := tp.Now()
		rk.Compute(tp, cpu)
		r.span(rs, "Rank.Compute", -1, threadTID+t, round, at, tp.Now())
	}
	if idle > 0 {
		tp.Sleep(idle)
	}
	partBytes := w.bytes / w.threads
	for _, s := range rs.sends {
		writeStamp(s.buf, partBytes, r.seed, s.id, round, t)
		at := tp.Now()
		if err := s.ps.Pready(tp, t); err != nil {
			return err
		}
		if lp := &r.logs[s.id].lastPready[round]; at > *lp {
			*lp = at
		}
		r.span(rs, "Psend.Pready", s.id, threadTID+t, round, at, tp.Now())
	}
	return nil
}

// span records a span when the repetition is traced.
func (r *rep) span(rs *rankState, name string, req, tid, round int, from, to sim.Time) {
	if r.opt.traced {
		rs.spans = append(rs.spans, span{name: name, req: req, tid: tid, round: round, from: from, to: to})
	}
}

// setupDone runs on rank 0 as it leaves the setup barrier.
func (r *rep) setupDone() {
	r.marks.setupEnd = time.Now()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = int64(ms.HeapAlloc)
}

// phase snapshots the counters at the start (which = 0) or the end
// (which = 1) of the measured phase.
func (r *rep) phase(p *sim.Proc, rk *mpi.Rank, rs *rankState, which int) {
	c := &rs.ctr[which]
	c.wc = rk.WCProcessed()
	port := rk.Node().HCA.Port()
	c.msgs, c.bytes = port.MessagesSent(), port.BytesSent()
	if rs.leader {
		c.events, c.sched = p.Engine().Events(), p.Engine().SchedStats()
	}
	if rs.id != 0 {
		return
	}
	m := &r.marks
	if which == 1 {
		m.end = time.Now()
		if r.opt.traced {
			pprof.StopCPUProfile()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs[which] = ms.Mallocs
	m.gcCPU[which], m.allCPU[which] = readCPUClasses()
	if which == 0 {
		if r.opt.traced {
			m.profErr = pprof.StartCPUProfile(&m.profile)
		}
		m.start = time.Now()
	}
}

// readCPUClasses returns the runtime's GC and total CPU-second estimates.
func readCPUClasses() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// errMismatch marks a repetition whose virtual outcome differs from the
// reference run.
var errMismatch = errors.New("virtual outcome differs from the reference run")

// check validates the repetition's outputs and computes its fingerprint:
// partition stamps, non-negative latency segments, and (on point-to-point
// workloads) start + spread + tail == round for every round.
func (r *rep) check() error {
	bad := 0
	for _, rs := range r.ranks {
		bad += rs.bad
	}
	if bad > 0 {
		return fmt.Errorf("%d bad partition stamps", bad)
	}
	w := r.w
	d := newDigest()
	for _, rs := range r.ranks {
		d.int(int64(rs.digest))
		for _, t := range rs.start[w.warmup:] {
			d.int(int64(t))
		}
	}
	for id, lg := range r.logs {
		for round := w.warmup; round < len(lg.done); round++ {
			src := r.ranks[r.links[id].src].start[round]
			if lg.done[round] < lg.lastPready[round] || lg.lastPready[round] < src {
				return fmt.Errorf("request %d round %d: timestamps out of order", id, round)
			}
			d.int(int64(lg.lastPready[round]))
			d.int(int64(lg.done[round]))
		}
	}
	if w.shape == shapeP2P {
		lg := r.logs[0]
		for round := w.warmup; round < len(lg.done); round++ {
			s0 := r.ranks[0].start[round]
			start := lg.started[round].Sub(s0)
			spread := lg.lastPready[round].Sub(lg.started[round])
			tail := lg.done[round].Sub(lg.lastPready[round])
			if start < 0 || spread < 0 || tail < 0 || start+spread+tail != r.roundTime(round) {
				return fmt.Errorf("round %d: segments %v + %v + %v do not sum to the round %v", round, start, spread, tail, r.roundTime(round))
			}
		}
	}
	r.fingerprint = d.sum()
	return nil
}

// roundTime is the virtual length of a round: from rank 0 leaving the
// round's barrier to the last receive completion any rank observes.
func (r *rep) roundTime(round int) time.Duration {
	var end sim.Time
	for _, lg := range r.logs {
		if lg.done[round] > end {
			end = lg.done[round]
		}
	}
	return end.Sub(r.ranks[0].start[round])
}
