package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the conservative parallel discrete-event runtime: a ShardSet
// groups several engines (shards) and advances them through synchronization
// hops bounded by cross-shard lookahead, exchanging cross-shard events
// through per-pair SPSC mailboxes.
//
// The protocol (DESIGN.md §11) in one paragraph: execution proceeds in
// hops. Within a hop every shard runs its events up to a per-destination
// window bound endOf[d], publishing its next-event time in a plain
// per-shard slot as it finishes. The last shard to finish performs the hop
// transition in place — no separate coordinator thread, no serial
// scan-and-drain section: it folds the published next-event times with the
// undrained mailbox minima into per-shard seeds, runs a min-plus fixpoint
// over the lookahead matrix to produce the next endOf bounds, seals the
// dispatched destinations' mailbox snapshots, and releases the next hop.
// Workers drain their own destination's sealed snapshots (fixed
// dst-major/src-minor order) when they claim a shard at the start of a
// hop; producers append same-hop posts past the snapshots without racing
// the reads. Long single-shard stretches are detected at transitions and
// executed inline on the transition thread with the fleet parked;
// `windows` counts fleet dispatch episodes while `tminHops` counts every
// barrier-to-barrier hop.
//
// Window-bound soundness: endOf[d] must lower-bound the timestamp of every
// cross-shard post that can still arrive at shard d. Any such post is the
// end of a reaction chain seeded either by a real pending event of some
// shard s ≠ d, or by a post d itself emits during the current hop. The
// first family is covered by endOf[d] = min over s ≠ d of seed[s] +
// dist[s][d], where seed[s] is shard s's earliest future firing time
// (engine next-event or undrained mailbox minimum) and dist is the
// min-plus shortest path over the lookahead matrix (chains may relay
// through any shard, including d itself). The second family is covered by
// the dynamic self-cap: when shard d posts an event with timestamp a, any
// reaction can reach d no earlier than a plus d's minimum incoming
// lookahead, so post() pulls d's own running window bound down to that
// value (worker-local, deterministic — it depends only on d's own event
// stream). Because seed[s] ≤ now(s) whenever s is executing, every bound
// also satisfies endOf[d] ≤ now(src) + λ[src][d] at the instant src posts,
// which is why the post assert below can require at ≥ endOf[dst].
//
// Determinism does not depend on the worker count or on scheduling: each
// shard's events fire single-threaded in (at, seq) order, seq assignment
// within a shard comes only from its own events plus the claimer's drain
// (fixed src order over snapshots sealed at a barrier, so their contents
// are frozen), and the hop/window sequence is a pure function of event
// timestamps.

// timeInf is the "no event" sentinel for seeds, bounds, and published
// next-event times.
const timeInf = Time(math.MaxInt64)

// post is one cross-shard event in flight: the target-time/callback pair
// the destination engine will schedule at the next hop boundary.
type post struct {
	at   Time
	fire func(Time, any)
	arg  any
}

// mailbox is a single-producer single-consumer event buffer for one
// (src shard, dst shard) pair. The owning src worker appends to buf during
// a hop; the worker claiming dst reads only the sealed snapshot. Sealing
// happens on the transition thread, behind the finish barrier: sealed
// captures buf's header for the dsts about to be dispatched, so the
// consumer's reads cover exactly the pre-hop prefix while the producer
// keeps appending past it (appends write only indexes beyond the snapshot;
// a growth reallocation copies the array and leaves the snapshot's backing
// intact). The next transition drops the delivered prefix. Buffers are
// reused hop over hop, so steady-state posting does not allocate.
type mailbox struct {
	// buf is the producer-side append buffer; the transition compacts it
	// after delivery.
	buf []post
	// sealed is the frozen pre-hop snapshot the consumer drains.
	sealed []post
	// minAt is the smallest unsealed timestamp (timeInf when none),
	// maintained by the producer and reset when the transition seals. The
	// hop transition reads it — after the finish barrier, so the value is
	// frozen — to fold posts that have not been delivered yet into the
	// destination's seed.
	minAt Time
	// sent counts posts over the whole run, for ShardStats.
	sent uint64
}

// worker is one spin/park fleet member. Workers never exit between hops:
// they spin briefly on the hop counter and fall back to a buffered wake
// channel, so a hop costs no goroutine churn.
type worker struct {
	wake   chan struct{}
	parked atomic.Bool
}

// spinRounds bounds busy-waiting on the hop counter before a worker parks
// on its channel. Hops are microseconds of virtual time and usually
// sub-millisecond of wall time, so a short spin wins most races.
const spinRounds = 256

// ShardSet runs a group of engines as one conservative parallel
// simulation. Construct with NewShardSet, create simulation state on the
// member engines, then call Run.
type ShardSet struct {
	engines []*Engine
	// lam is the per-pair lookahead matrix and dist its min-plus
	// all-pairs closure. inMin[d] is the minimum incoming lookahead of
	// shard d — the dynamic self-cap increment.
	lam   [][]time.Duration
	dist  [][]time.Duration
	inMin []time.Duration

	// mail[src][dst] holds posts from shard src to shard dst.
	mail [][]mailbox

	// endOf[d] is shard d's current window bound; seeds is the
	// transition's per-shard scratch. nextSlot[i] is shard i's published
	// next-event time, written by whichever worker ran the shard this
	// hop. engaged lists the shards dispatched this hop (the ones whose
	// seed lies inside their bound — only they can fire). All are written
	// strictly on one side of the finish barrier and read on the other
	// (the gate's atomic release/acquire publishes them), so plain slices
	// suffice.
	endOf    []Time
	seeds    []Time
	nextSlot []Time
	engaged  []int

	// gate is the claim gate: the hop's claim bound, len(engaged), in the
	// high 32 bits and the next unclaimed engaged-slot index in the low 32.
	// The transition zeroes it on entry and releaseHop publishes (bound, 0)
	// after the engaged writes it orders (atomics are sequentially
	// consistent), so mid-transition the gate reads a zero bound. A claim
	// is a CAS over the whole word: a participant holding a stale word can
	// never win it once the hop it read has closed, even if a later hop's
	// index has come back round to the same value, unless that hop has the
	// same bound — and then the slot it claims is a real one of that hop.
	gate atomic.Uint64

	// hop increments at every hop release; participants wait on it.
	// finished counts engaged shards completed this hop; the last one runs
	// the transition.
	hop      atomic.Uint64
	finished atomic.Int64
	done     atomic.Bool

	coordinator worker
	fleet       []*worker

	// err is transition-thread state (transitions are serialized by the
	// finish barrier, so a plain field is safe).
	err error

	// Stats.
	windows  uint64
	tminHops uint64
	stalls   uint64
}

// NewShardSet creates one engine per row of the lookahead matrix:
// lam[src][dst] lower-bounds the gap between any event on shard src and the
// cross-shard posts it emits toward shard dst, and the diagonal is ignored.
// A uniform matrix is one global lookahead λ. It panics on an empty or
// non-square matrix, or on a non-positive off-diagonal entry (zero
// lookahead admits no conservative window; run serial instead).
func NewShardSet(lam [][]time.Duration) *ShardSet {
	n := len(lam)
	if n < 1 {
		panic("sim: ShardSet needs at least one shard")
	}
	m := make([][]time.Duration, n)
	for i := range lam {
		if len(lam[i]) != n {
			panic(fmt.Sprintf("sim: lookahead matrix row %d has %d entries, want %d", i, len(lam[i]), n))
		}
		m[i] = append([]time.Duration(nil), lam[i]...)
		for j, d := range m[i] {
			if i != j && d <= 0 {
				panic(fmt.Sprintf("sim: pair lookahead λ[%d][%d]=%v is not positive", i, j, d))
			}
		}
	}
	s := &ShardSet{lam: m}
	s.engines = make([]*Engine, n)
	s.mail = make([][]mailbox, n)
	for i := range s.engines {
		e := NewEngine()
		e.shard, e.shardID = s, int32(i)
		s.engines[i] = e
		s.mail[i] = make([]mailbox, n)
		for j := range s.mail[i] {
			s.mail[i][j].minAt = timeInf
		}
	}
	s.endOf = make([]Time, n)
	s.seeds = make([]Time, n)
	s.nextSlot = make([]Time, n)
	s.engaged = make([]int, 0, n)
	// All-pairs min-plus closure (Floyd–Warshall over the shard graph):
	// reaction chains may relay through any shard, so the bound for a
	// (seed, destination) pair is the shortest lookahead path, not the
	// direct edge. n is small (shard counts are single digits), so the
	// cubic closure at setup is irrelevant.
	d := make([][]time.Duration, n)
	for i := range d {
		d[i] = make([]time.Duration, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = m[i][j]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := d[i][k] + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
	s.dist = d
	s.inMin = make([]time.Duration, n)
	for j := 0; j < n; j++ {
		min := time.Duration(math.MaxInt64)
		for i := 0; i < n; i++ {
			if i != j && m[i][j] < min {
				min = m[i][j]
			}
		}
		s.inMin[j] = min
	}
	s.coordinator.wake = make(chan struct{}, 1)
	return s
}

// Engine returns shard i's engine.
func (s *ShardSet) Engine(i int) *Engine { return s.engines[i] }

// Shards returns the shard count.
func (s *ShardSet) Shards() int { return len(s.engines) }

// PairLookahead returns the lookahead from shard src to shard dst.
func (s *ShardSet) PairLookahead(src, dst int) time.Duration { return s.lam[src][dst] }

// ShardStats describes one completed run of the set.
type ShardStats struct {
	// Windows counts fleet dispatch windows: hops in which two or more
	// shards could fire, so the worker fleet was engaged. Hops with a
	// single engaged shard run inline on the transition thread and are
	// not counted here.
	Windows uint64
	// TminHops counts every synchronization hop, dispatched or inline —
	// the true number of times the runtime had to agree on new window
	// bounds.
	TminHops uint64
	// WindowsSkipped is TminHops - Windows: hops executed without
	// dispatching the fleet.
	WindowsSkipped uint64
	// AvgWindowOccupancy is the mean number of events executed per hop.
	AvgWindowOccupancy float64
	// Stalls counts hops in which a shard with pending future work could
	// not fire inside its window bound — synchronization rounds that were
	// pure overhead for that shard (window-sync stalls).
	Stalls uint64
	// Events is the per-shard executed-event count.
	Events []uint64
	// CrossPosts is the total number of cross-shard mailbox posts.
	CrossPosts uint64
}

// Stats reports counters for the last Run.
func (s *ShardSet) Stats() ShardStats {
	st := ShardStats{Windows: s.windows, TminHops: s.tminHops, Stalls: s.stalls}
	if st.TminHops >= st.Windows {
		st.WindowsSkipped = st.TminHops - st.Windows
	}
	st.Events = make([]uint64, len(s.engines))
	var total uint64
	for i, e := range s.engines {
		st.Events[i] = e.stepped
		total += e.stepped
	}
	if st.TminHops > 0 {
		st.AvgWindowOccupancy = float64(total) / float64(st.TminHops)
	}
	for i := range s.mail {
		for j := range s.mail[i] {
			st.CrossPosts += s.mail[i][j].sent
		}
	}
	return st
}

// post enqueues a cross-shard event; called from Engine.Post on the worker
// owning shard src. at must not precede the destination's window bound —
// that would mean the lookahead bound is violated and conservative
// execution is unsound, so it panics loudly rather than corrupting the
// timeline. The post also pulls the posting shard's own window bound down
// to at + inMin[src] (the dynamic self-cap): reactions to this post can
// reach src no earlier than that, and nothing else bounds src when every
// other shard is idle.
func (s *ShardSet) post(src, dst int, at Time, fire func(Time, any), arg any) {
	if at < s.endOf[dst] {
		panic(fmt.Sprintf("sim: cross-shard post at %v violates lookahead (window of shard %d ends %v)", at, dst, s.endOf[dst]))
	}
	mb := &s.mail[src][dst]
	mb.buf = append(mb.buf, post{at: at, fire: fire, arg: arg})
	if at < mb.minAt {
		mb.minAt = at
	}
	mb.sent++
	e := s.engines[src]
	if cap := at.Add(s.inMin[src]); cap < e.winEnd {
		e.winEnd = cap
	}
}

// drainInto delivers shard dst's sealed mailbox snapshots into its engine,
// walking sources in fixed src order (the global delivery order is
// therefore dst-major, src-minor, FIFO within a mailbox — identical to the
// PR 6 coordinator drain). It runs on the worker that claimed dst, at the
// start of a hop. The snapshots were sealed by the transition behind the
// finish barrier, so their contents are frozen and seq assignment is
// identical run over run regardless of worker interleaving — and the
// consumer performs only reads here, so producers appending same-hop posts
// past the snapshots never race with it.
func (s *ShardSet) drainInto(dst int) {
	e := s.engines[dst]
	for src := range s.engines {
		mb := &s.mail[src][dst]
		for i := range mb.sealed {
			p := &mb.sealed[i]
			e.scheduleCall(p.at, p.fire, p.arg)
		}
	}
}

// seal snapshots every mailbox addressed to dst for delivery in the hop
// about to open. Runs on the transition thread only, behind the finish
// barrier; producers resume appending past the snapshot once the hop is
// released.
func (s *ShardSet) seal(dst int) {
	for src := range s.engines {
		mb := &s.mail[src][dst]
		mb.sealed = mb.buf
		mb.minAt = timeInf
	}
}

// cleanupDrained drops delivered snapshot prefixes from every sealed
// mailbox: the dsts sealed for the previous hop have drained exactly their
// snapshots, and whatever producers appended past a snapshot slides to the
// front for the next seal. Runs on the transition thread only, before
// seeds are recomputed, so undelivered-post minima stay consistent.
func (s *ShardSet) cleanupDrained() {
	for dst := range s.engines {
		for src := range s.engines {
			mb := &s.mail[src][dst]
			if mb.sealed == nil {
				continue
			}
			if n := len(mb.sealed); n > 0 {
				kept := copy(mb.buf, mb.buf[n:])
				// Clear vacated slots so delivered callbacks and args are
				// not pinned until the slot is overwritten.
				for i := kept; i < len(mb.buf); i++ {
					mb.buf[i] = post{}
				}
				mb.buf = mb.buf[:kept]
			}
			mb.sealed = nil
		}
	}
}

// drain seals and delivers every mailbox to every destination (dst-major,
// src-minor) until none holds a post. Only single-threaded callers (tests)
// use it; the hop path seals at transitions and drains per destination in
// claimLoop.
func (s *ShardSet) drain() bool {
	delivered := false
	for {
		pending := false
		for dst := range s.engines {
			for src := range s.engines {
				if len(s.mail[src][dst].buf) > 0 {
					pending = true
				}
			}
		}
		if !pending {
			return delivered
		}
		delivered = true
		for dst := range s.engines {
			s.seal(dst)
			s.drainInto(dst)
		}
		s.cleanupDrained()
	}
}

// runShard executes shard i's slice of the current hop: drain the shard's
// incoming mailboxes, run its window, publish its next-event time, and —
// when it is the last of the hop's bound engaged shards to finish —
// perform the hop transition in place. The bound comes from the gate word
// the claim won, not from a reload: by the time this shard finishes, the
// last finisher may already have opened a later hop.
func (s *ShardSet) runShard(i int, bound int64) {
	e := s.engines[i]
	s.drainInto(i)
	e.winEnd = s.endOf[i]
	nxt, ok := e.runWindow()
	at := timeInf
	if ok {
		at = nxt
	}
	s.nextSlot[i] = at
	if s.finished.Add(1) == bound {
		s.transition(true)
	}
}

// claimLoop claims and runs engaged shards until none remain in the
// current hop. A claim is a CAS that advances the gate word's index and
// compares bound and index together, so the index never overshoots the
// bound and a participant arriving late (after the transition reset the
// gate) either reads the zeroed bound and leaves, or reads the new word —
// published after the new engaged set — and simply joins the new hop.
func (s *ShardSet) claimLoop() {
	for {
		g := s.gate.Load()
		bound, c := g>>32, g&(1<<32-1)
		if c >= bound {
			return
		}
		if !s.gate.CompareAndSwap(g, g+1) {
			continue
		}
		s.runShard(s.engaged[c], int64(bound))
	}
}

// computeSeeds folds each shard's published next-event time with its
// undrained mailbox minima into seeds, and returns the number of shards
// with any future firing. Runs only on the transition thread, behind the
// finish barrier.
func (s *ShardSet) computeSeeds() (active int) {
	for i := range s.engines {
		seed := s.nextSlot[i]
		for src := range s.engines {
			if m := s.mail[src][i].minAt; m < seed {
				seed = m
			}
		}
		s.seeds[i] = seed
		if seed != timeInf {
			active++
		}
	}
	return active
}

// computeBounds derives the next per-destination window bounds from the
// seeds: endOf[d] = min over s ≠ d of seed[s] + dist[s][d] (reaction
// chains seeded by any other shard's earliest future firing, relayed along
// lookahead shortest paths); a shard's own future emissions are excluded
// here and covered at run time by the dynamic self-cap in post.
func (s *ShardSet) computeBounds() {
	n := len(s.engines)
	for d := 0; d < n; d++ {
		end := timeInf
		for src := 0; src < n; src++ {
			if src == d || s.seeds[src] == timeInf {
				continue
			}
			if hop := s.seeds[src].Add(s.dist[src][d]); hop < end {
				end = hop
			}
		}
		s.endOf[d] = end
	}
}

// transition advances the set from one hop to the next. It runs on
// whichever participant finished the hop last (afterHop true) or on the
// Run caller before the first hop (afterHop false); the finish barrier
// serializes invocations, so it may use plain fields. Responsibilities:
// error and completion detection, seed/bound computation, the engaged-set
// selection (with stall accounting), inline execution of single-engaged
// hops, and the release of the next fleet hop. It runs once per hop, not
// per event, so it is the allocation-budget boundary: the engaged-set
// append below reuses the slice's backing array across hops.
func (s *ShardSet) transition(afterHop bool) {
	// Close the claim gate before touching any hop state: from here until
	// releaseHop republishes the bound, no participant can claim.
	s.gate.Store(0)
	if afterHop {
		for _, e := range s.engines {
			if e.err != nil {
				if s.err == nil {
					s.err = e.err
				}
				s.shutdown()
				return
			}
		}
	}
	for {
		s.cleanupDrained()
		active := s.computeSeeds()
		if active == 0 {
			s.shutdown()
			return
		}
		s.computeBounds()
		s.tminHops++
		// Engaged shards are the ones whose seed lies inside their bound:
		// exactly the shards that will fire this hop. The others would run
		// an empty window, so they are not dispatched at all (their
		// published state stays valid), and a hop with a single engaged
		// shard runs inline on this thread with the fleet parked. There is
		// always at least one engaged shard: the globally earliest seed is
		// strictly below its own bound, which is derived from the other
		// shards' (later or equal) seeds plus positive lookahead.
		s.engaged = s.engaged[:0]
		for i := range s.engines {
			if s.seeds[i] < s.endOf[i] {
				s.engaged = append(s.engaged, i)
			}
		}
		if len(s.engaged) < active {
			s.stalls++
		}
		if len(s.engaged) == 1 {
			s.seal(s.engaged[0])
			s.runSolo(s.engaged[0])
			if s.err != nil {
				s.shutdown()
				return
			}
			continue
		}
		s.windows++
		for _, d := range s.engaged {
			s.seal(d)
		}
		s.releaseHop(len(s.engaged))
		return
	}
}

// runSolo executes one inline hop of shard i on the transition thread.
func (s *ShardSet) runSolo(i int) {
	e := s.engines[i]
	s.drainInto(i)
	e.winEnd = s.endOf[i]
	nxt, ok := e.runWindow()
	at := timeInf
	if ok {
		at = nxt
	}
	s.nextSlot[i] = at
	if e.err != nil && s.err == nil {
		s.err = e.err
	}
}

// releaseHop opens the next hop for the fleet: reset the finish counter,
// publish the gate word (bound engagedShards, index 0 — the finish counter
// is reset first, so a claim taken the instant the word lands correctly
// counts toward the new hop), bump the hop counter, and wake at most
// engaged-1 parked participants — the releasing thread claims work itself,
// and waking more workers than there are claimable shards is pure
// wake/park churn. Fewer awake workers than engaged shards is safe:
// claims are work-stealing, so whoever is awake drains the surplus.
func (s *ShardSet) releaseHop(engagedShards int) {
	s.finished.Store(0)
	s.gate.Store(uint64(engagedShards) << 32)
	s.hop.Add(1)
	budget := engagedShards - 1
	if budget > len(s.engines)-1 {
		budget = len(s.engines) - 1
	}
	if s.coordinator.parked.Load() && budget > 0 {
		s.wake(&s.coordinator)
		budget--
	}
	for _, w := range s.fleet {
		if budget <= 0 {
			return
		}
		if w.parked.Load() {
			s.wake(w)
			budget--
		}
	}
}

// shutdown marks the run complete and releases every participant.
func (s *ShardSet) shutdown() {
	s.done.Store(true)
	s.hop.Add(1)
	s.wake(&s.coordinator)
	for _, w := range s.fleet {
		s.wake(w)
	}
}

// wake delivers a non-blocking token to a parked worker.
func (s *ShardSet) wake(w *worker) {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// participate is the hop loop every participant (the Run caller and each
// fleet goroutine) executes: wait for a hop release, claim shards, repeat
// until the set shuts down.
func (s *ShardSet) participate(w *worker, last uint64) {
	for {
		for spin := 0; s.hop.Load() == last; {
			if spin < spinRounds {
				spin++
				runtime.Gosched()
				continue
			}
			w.parked.Store(true)
			if s.hop.Load() != last {
				w.parked.Store(false)
				break
			}
			<-w.wake
			w.parked.Store(false)
		}
		last = s.hop.Load()
		if s.done.Load() {
			return
		}
		s.claimLoop()
	}
}

// Run drives every shard to completion and returns the first error in
// shard order (a proc panic) or an aggregated deadlock report. Workers is
// the fleet size including the calling goroutine; 0 selects
// min(shards, GOMAXPROCS).
func (s *ShardSet) Run(workers int) error {
	// Registered first, so it runs after the fleet is joined below: no
	// worker can still be resuming a proc when the shells are released.
	defer func() {
		for _, e := range s.engines {
			e.endRun()
		}
	}()
	if len(s.engines) == 1 {
		// One shard is the serial engine with extra steps; skip them.
		return s.engines[0].Run()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.engines) {
		workers = len(s.engines)
	}
	start := s.hop.Load()
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		w := &worker{wake: make(chan struct{}, 1)}
		s.fleet = append(s.fleet, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.participate(w, start)
		}()
	}
	// Join the fleet before returning: the last finisher — any participant,
	// not necessarily the Run caller — may still be inside shutdown's wake
	// sweep when the coordinator observes completion.
	defer func() {
		wg.Wait()
		s.fleet = nil
	}()

	// Seed the first transition from the engines directly: nothing has
	// run yet, so published slots do not exist.
	for i, e := range s.engines {
		at := timeInf
		if v, ok := e.nextAt(); ok {
			at = v
		}
		s.nextSlot[i] = at
	}
	s.transition(false)
	if !s.done.Load() {
		s.participate(&s.coordinator, start)
	}

	if s.err != nil {
		// Prefer shard-order error reporting for determinism.
		for _, e := range s.engines {
			if e.err != nil {
				return e.err
			}
		}
		return s.err
	}
	// Global drain: queues and mailboxes are empty, so parked non-daemon
	// procs can never wake — aggregate them across shards.
	var stuck []string
	for _, e := range s.engines {
		stuck = append(stuck, e.stuckProcs()...)
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return &DeadlockError{Procs: stuck}
	}
	return nil
}
