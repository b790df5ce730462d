package core

import (
	"time"

	"repro/internal/ploggp"
	"repro/internal/sim"
)

// This file implements StrategyAdaptive: a fourth, self-tuning aggregation
// design that none of the paper's three strategies provide. The paper picks
// its aggregators offline (the tuning table) or at init time (PLogGP with an
// assumed laggard delay); the adaptive strategy instead observes each
// round's MPI_Pready arrival pattern and re-selects the execution design at
// the next round boundary.
//
// The design splits cleanly into a hot half and a cold half:
//
//   - The observer (recordArrival, noteDone) runs on the Pready and
//     completion hot paths and only writes into fixed, pre-sized
//     storage — no allocation, ever (hotpathalloc enforces it, an
//     AllocsPerRun gate proves it at runtime).
//   - The switcher (finishRound, decide) runs once per round at MPI_Start,
//     where the request is quiescent. It folds the per-partition arrival
//     offsets of the last AdaptiveWindow rounds into a histogram, scores
//     every candidate grouping with the PLogGP cost terms evaluated against
//     that histogram (rather than the model's uniform many-before-one
//     assumption), and switches only past a hysteresis margin and a dwell
//     time, so measurement noise cannot make it flap.
//
// Candidate designs are the three in-library aggregations reachable without
// renegotiating endpoints: the eager no-aggregation grouping (transport ==
// user partitions — the baseline equivalent over RDMA), PLogGP-style
// groupings for every transport count that divides the user partition count
// and is a multiple of the fixed QP count (keeping the receiver's per-
// endpoint receive-WR provisioning a worst-case bound), and the timer
// variant of each grouping with δ re-derived from the observed laggard
// tail. Determinism is part of the contract: every input to a decision is a
// virtual timestamp, so the same seed produces the same switch sequence,
// byte-identical under any shard or worker count.

// AdaptiveMode identifies the execution design the adaptive strategy is
// running rounds under.
type AdaptiveMode int

const (
	// AdaptiveEager posts every user partition as its own transport
	// partition — the no-aggregation grouping, the in-library equivalent
	// of the baseline design.
	AdaptiveEager AdaptiveMode = iota
	// AdaptivePLogGP aggregates into the grouping the switcher scored best
	// and sends each group when its last member partition arrives.
	AdaptivePLogGP
	// AdaptiveTimer is AdaptivePLogGP plus the δ-timer early-bird
	// mechanism, with δ derived from the observed laggard tail.
	AdaptiveTimer
)

func (m AdaptiveMode) String() string {
	switch m {
	case AdaptiveEager:
		return "eager"
	case AdaptivePLogGP:
		return "ploggp"
	case AdaptiveTimer:
		return "timer"
	default:
		return "unknown mode"
	}
}

// AdaptiveSwitch records one switcher decision that changed the active
// design (the round-1 entry records the initial choice).
type AdaptiveSwitch struct {
	// Round is the round the new design first applied to.
	Round int
	// Mode, Transport, and Delta are the design switched to.
	Mode      AdaptiveMode
	Transport int
	Delta     time.Duration
	// Predicted is the switcher's histogram-scored round latency for the
	// chosen design at decision time.
	Predicted time.Duration
}

// AdaptiveStats is a snapshot of the adaptive strategy's decision
// telemetry, exposed for benchmarks, experiments, and the differential
// determinism tests (same seed ⇒ identical Switches sequence).
type AdaptiveStats struct {
	// Rounds is the number of completed (fully observed) rounds.
	Rounds int
	// Mode, Transport, and Delta are the currently active design.
	Mode      AdaptiveMode
	Transport int
	Delta     time.Duration
	// Switches is the decision history: the initial design plus one entry
	// per change.
	Switches []AdaptiveSwitch
	// RoundsInMode tallies completed rounds per mode (indexed by
	// AdaptiveMode).
	RoundsInMode [3]int
	// ObservedNs and PredictedNs accumulate, over completed rounds, the
	// measured round completion latency and the switcher's prediction for
	// the design that ran the round. RegretNs is the positive part of
	// their difference summed per round — the price of trusting the PLogGP
	// prediction, the quantity the Hunold-style guarantee bounds.
	ObservedNs  int64
	PredictedNs int64
	RegretNs    int64
	// RecordedArrivals counts Pready observations taken on the hot path.
	RecordedArrivals int64
}

// Equal reports whether two snapshots describe the same decision history —
// the differential tests' byte-identity check for the switcher.
func (s AdaptiveStats) Equal(o AdaptiveStats) bool {
	if s.Rounds != o.Rounds || s.Mode != o.Mode || s.Transport != o.Transport ||
		s.Delta != o.Delta || s.RoundsInMode != o.RoundsInMode ||
		s.ObservedNs != o.ObservedNs || s.PredictedNs != o.PredictedNs ||
		s.RegretNs != o.RegretNs || s.RecordedArrivals != o.RecordedArrivals ||
		len(s.Switches) != len(o.Switches) {
		return false
	}
	for i := range s.Switches {
		if s.Switches[i] != o.Switches[i] {
			return false
		}
	}
	return true
}

// Adaptive switcher defaults (see Options.Adaptive* for the overrides).
const (
	defaultAdaptiveWindow        = 8
	defaultAdaptiveHysteresisPct = 10.0
	defaultAdaptiveDwell         = 4
)

// minAdaptiveDelta floors the derived δ: a zero timer would fire before any
// second partition could ever join a group.
const minAdaptiveDelta = time.Microsecond

// adaptiveRound is one completed round's summary in the observation ring.
type adaptiveRound struct {
	// offs are the per-partition arrival offsets (Start→Pready), indexed
	// by user partition; a slice of the ring's shared backing array.
	offs []time.Duration
	// latency is Start→last send completion.
	latency time.Duration
}

// adaptiveState is the per-request observer + switcher. It hangs off Psend
// only when Options.Strategy == StrategyAdaptive.
type adaptiveState struct {
	model      *ploggp.Model
	userParts  int
	partBytes  int
	totalBytes int
	qps        int

	window  int
	hystPct float64
	dwell   int
	warmup  int

	// Active design. transport mirrors Psend.plan.Transport; delta feeds
	// timerPready when mode == AdaptiveTimer.
	mode      AdaptiveMode
	transport int
	delta     time.Duration

	// candidates are the switchable transport counts: divisors of
	// userParts that are multiples of qps, ascending. Always contains the
	// initial transport.
	candidates []int

	// --- per-round recording state, reset by beginRound -----------------
	// curRound / foldedRound make finishRound idempotent: the fold runs
	// at the next Start, but stats() also folds so a snapshot taken after
	// the final Wait includes the last round.
	curRound    int
	foldedRound int
	startAt     sim.Time
	doneAt      sim.Time
	seen        int
	// arr[i] is partition i's arrival offset this round (valid when the
	// round completes: seen == userParts).
	arr []time.Duration

	// --- observation ring ------------------------------------------------
	// ring holds the last `window` completed rounds; ringBack is the one
	// backing array its offs slices are carved from.
	ring     []adaptiveRound
	ringBack []time.Duration
	ringN    int

	// hist, groupScratch, and wrScratch are decision-time scratch: the
	// windowed mean arrival offset per partition, a per-group sorting
	// area, and the candidate WR arrival times fed to the drain fold.
	hist         []time.Duration
	groupScratch []time.Duration
	wrScratch    []time.Duration

	// lastPredicted is the histogram score of the active design at the
	// last decision — the prediction the next rounds are judged against.
	lastPredicted time.Duration

	// --- telemetry --------------------------------------------------------
	switches     []AdaptiveSwitch
	roundsInMode [3]int
	observedNs   int64
	predictedNs  int64
	regretNs     int64
	recorded     int64
	sinceSwitch  int
}

// newAdaptiveState builds the observer/switcher for one Psend whose initial
// plan has already been resolved (PLogGP-optimal grouping, fixed QPs).
func newAdaptiveState(opts Options, plan Plan, userParts, totalBytes int, model *ploggp.Model) *adaptiveState {
	a := &adaptiveState{
		model:      model,
		userParts:  userParts,
		partBytes:  totalBytes / userParts,
		totalBytes: totalBytes,
		qps:        plan.QPs,
		window:     opts.AdaptiveWindow,
		hystPct:    opts.AdaptiveHysteresisPct,
		dwell:      opts.AdaptiveDwell,
		mode:       AdaptivePLogGP,
		transport:  plan.Transport,
		delta:      opts.delta(),
	}
	if a.window <= 0 {
		a.window = defaultAdaptiveWindow
	}
	if a.hystPct <= 0 {
		a.hystPct = defaultAdaptiveHysteresisPct
	}
	if a.dwell <= 0 {
		a.dwell = defaultAdaptiveDwell
	}
	a.warmup = opts.AdaptiveWarmup
	if a.warmup <= 0 {
		a.warmup = a.window
	}
	if plan.Transport == userParts {
		a.mode = AdaptiveEager
	}
	// Switchable groupings: keeping transport a multiple of the QP count
	// preserves the receiver's per-endpoint worst-case receive-WR
	// provisioning (userParts/QPs partitions per endpoint) across every
	// switch.
	for t := a.qps; t <= userParts; t += a.qps {
		if userParts%t == 0 {
			a.candidates = append(a.candidates, t)
		}
	}
	if len(a.candidates) == 0 || plan.Transport%a.qps != 0 {
		// No safe alternatives: hold the initial grouping forever (the
		// mode may still toggle between plain and timer on it).
		a.candidates = []int{plan.Transport}
	}
	a.arr = make([]time.Duration, userParts)
	a.ring = make([]adaptiveRound, a.window)
	a.ringBack = make([]time.Duration, a.window*userParts)
	for i := range a.ring {
		a.ring[i].offs = a.ringBack[i*userParts : (i+1)*userParts : (i+1)*userParts]
	}
	a.hist = make([]time.Duration, userParts)
	a.groupScratch = make([]time.Duration, userParts)
	a.wrScratch = make([]time.Duration, 0, userParts)
	// The init-time PLogGP prediction seeds the regret baseline until the
	// first histogram-scored decision replaces it.
	delay := opts.ModelDelay
	if delay == 0 {
		delay = 4 * time.Millisecond
	}
	a.lastPredicted = model.CompletionTime(plan.Transport, totalBytes, delay)
	a.switches = append(a.switches, AdaptiveSwitch{
		Round: 1, Mode: a.mode, Transport: a.transport, Delta: a.delta,
		Predicted: a.lastPredicted,
	})
	return a
}

// beginRound resets the per-round recording state at MPI_Start time.
func (a *adaptiveState) beginRound(at sim.Time) {
	a.curRound++
	a.startAt = at
	a.doneAt = at
	a.seen = 0
}

// recordArrival observes one MPI_Pready on the send hot path. It runs once
// per user partition per round after the duplicate-arrival guard, so it
// only stores into pre-sized request-owned memory.
//
//partib:hotpath
func (a *adaptiveState) recordArrival(part int, at sim.Time) {
	a.arr[part] = at.Sub(a.startAt)
	a.seen++
	a.recorded++
}

// noteDone stamps the round's completion instant. It runs inside the
// completion drain (the last WR acknowledgment flips Psend.done), so it is
// a bare store.
//
//partib:hotpath
func (a *adaptiveState) noteDone(at sim.Time) {
	a.doneAt = at
}

// finishRound folds the just-completed round into the observation ring.
// Runs at the next MPI_Start, where the request is quiescent.
func (a *adaptiveState) finishRound() {
	if a.seen != a.userParts || a.curRound == a.foldedRound {
		// A round the application never fully marked ready (error paths,
		// teardown) carries no usable arrival pattern; an already-folded
		// round must not be counted twice (stats() also folds).
		return
	}
	a.foldedRound = a.curRound
	r := &a.ring[a.ringN%a.window]
	copy(r.offs, a.arr)
	r.latency = a.doneAt.Sub(a.startAt)
	a.ringN++
	a.roundsInMode[a.mode]++
	obs := int64(r.latency)
	pred := int64(a.lastPredicted)
	a.observedNs += obs
	a.predictedNs += pred
	if d := obs - pred; d > 0 {
		a.regretNs += d
	}
}

// histogram recomputes the windowed mean arrival offset per partition into
// a.hist and returns the number of rounds it covers.
func (a *adaptiveState) histogram() int {
	n := a.ringN
	if n > a.window {
		n = a.window
	}
	if n == 0 {
		return 0
	}
	for i := range a.hist {
		a.hist[i] = 0
	}
	for r := 0; r < n; r++ {
		offs := a.ring[r].offs
		for i, o := range offs {
			a.hist[i] += o
		}
	}
	for i := range a.hist {
		a.hist[i] /= time.Duration(n)
	}
	return n
}

// laggardTail derives the timer δ from the histogram: the spread between
// the first and the second-to-last mean arrival — a δ at least this large
// covers every partition except the laggard, exactly the quantity the
// paper's Figure 12 estimates offline.
func (a *adaptiveState) laggardTail() time.Duration {
	s := a.groupScratch[:0]
	s = append(s, a.hist...)
	insertionSort(s)
	d := minAdaptiveDelta
	if n := len(s); n >= 2 {
		if tail := s[n-2] - s[0]; tail > d {
			d = tail
		}
	}
	return d
}

// insertionSort sorts in place without allocating (sort.Slice would box a
// closure; the inputs here are at most the user partition count).
func insertionSort(s []time.Duration) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// drainTime folds candidate WR arrival times through the receiver's serial
// completion drain: completions are processed in arrival order at o_r each,
// so WRs landing during a laggard wait cost nothing on the critical path
// while a burst of simultaneous arrivals serializes — exactly the n·o_r
// term of ploggp.CompletionTime when every WR arrives at once. Sorts arr in
// place and returns the last completion's instant.
func drainTime(arr []time.Duration, or time.Duration) time.Duration {
	insertionSort(arr)
	var free time.Duration
	for _, at := range arr {
		if at > free {
			free = at
		}
		free += or
	}
	return free
}

// scoreGrouping predicts the round latency of a plain grouping with the
// given transport count against the histogram: each group posts when its
// last member arrives, pays the PLogGP send terms for its aggregate size,
// and its completion joins the receiver drain queue — the cost structure of
// ploggp.CompletionTime with the measured per-partition arrivals in place
// of the uniform many-before-one assumption.
func (a *adaptiveState) scoreGrouping(transport int) time.Duration {
	p := a.model.ParamsFor(a.totalBytes)
	gs := a.userParts / transport
	bytes := gs * a.partBytes
	send := p.Os + p.ByteTime(bytes-1) + p.L
	wrs := a.wrScratch[:0]
	for g := 0; g < transport; g++ {
		var post time.Duration
		for i := g * gs; i < (g+1)*gs; i++ {
			if a.hist[i] > post {
				post = a.hist[i]
			}
		}
		wrs = append(wrs, post+send)
	}
	return drainTime(wrs, p.Or)
}

// scoreTimer predicts the round latency of a timer grouping: per group, the
// members arriving within δ of the group's first arrival travel as one
// early WR; later members post individually on arrival (the contiguous-run
// merging is ignored, making the estimate slightly pessimistic on WR
// count). All WR arrivals feed the same receiver drain fold.
func (a *adaptiveState) scoreTimer(transport int, delta time.Duration) time.Duration {
	p := a.model.ParamsFor(a.totalBytes)
	gs := a.userParts / transport
	wrs := a.wrScratch[:0]
	for g := 0; g < transport; g++ {
		offs := a.groupScratch[:gs]
		copy(offs, a.hist[g*gs:(g+1)*gs])
		insertionSort(offs)
		first, last := offs[0], offs[gs-1]
		// Early members: arrived by first+δ. The early WR posts at the
		// earlier of δ expiry and group completion.
		early := 0
		for _, o := range offs {
			if o <= first+delta {
				early++
			}
		}
		post := first + delta
		if early == gs && last < post {
			post = last
		}
		wrs = append(wrs, post+p.Os+p.ByteTime(early*a.partBytes-1)+p.L)
		// Stragglers: one WR each at their own arrival.
		for _, o := range offs[early:] {
			wrs = append(wrs, o+p.Os+p.ByteTime(a.partBytes-1)+p.L)
		}
	}
	return drainTime(wrs, p.Or)
}

// score dispatches to the mode's predictor.
func (a *adaptiveState) score(mode AdaptiveMode, transport int, delta time.Duration) time.Duration {
	if mode == AdaptiveTimer {
		return a.scoreTimer(transport, delta)
	}
	return a.scoreGrouping(transport)
}

// decide runs the hysteresis-guarded switcher at a round boundary and
// reports whether the active design changed. round is the round the
// decision applies to (the one about to start).
func (a *adaptiveState) decide(round int) bool {
	a.sinceSwitch++
	if a.ringN < a.warmup {
		return false
	}
	if a.histogram() == 0 {
		return false
	}
	tail := a.laggardTail()
	current := a.score(a.mode, a.transport, a.delta)
	a.lastPredicted = current

	bestMode, bestT, bestDelta := a.mode, a.transport, a.delta
	best := current
	for _, t := range a.candidates {
		if s := a.scoreGrouping(t); s < best {
			best, bestMode, bestT, bestDelta = s, AdaptivePLogGP, t, a.delta
			if t == a.userParts {
				bestMode = AdaptiveEager
			}
		}
		if t < a.userParts {
			if s := a.scoreTimer(t, tail); s < best {
				best, bestMode, bestT, bestDelta = s, AdaptiveTimer, t, tail
			}
		}
	}
	if bestMode == a.mode && bestT == a.transport && bestDelta == a.delta {
		return false
	}
	// Hysteresis compares the controllable portion of the predictions:
	// every design pays at least the last partition's arrival offset (no
	// WR covering it can post earlier), so on laggard-dominated patterns a
	// margin on the raw totals would never trip. Subtracting the common
	// floor makes the margin relative to the cost the switch can actually
	// change.
	floor := a.hist[0]
	for _, h := range a.hist[1:] {
		if h > floor {
			floor = h
		}
	}
	curCtl, bestCtl := current-floor, best-floor
	if curCtl <= 0 {
		return false
	}
	// The winner must beat the incumbent by the margin, and the incumbent
	// must have dwelled long enough, before a switch.
	if a.sinceSwitch < a.dwell || float64(bestCtl) >= float64(curCtl)*(1-a.hystPct/100) {
		return false
	}
	a.mode, a.transport, a.delta = bestMode, bestT, bestDelta
	a.lastPredicted = best
	a.sinceSwitch = 0
	a.switches = append(a.switches, AdaptiveSwitch{
		Round: round, Mode: bestMode, Transport: bestT, Delta: bestDelta,
		Predicted: best,
	})
	return true
}

// stats assembles a telemetry snapshot, folding a fully-observed round
// that Start has not folded yet (idempotent, so the next Start's fold is a
// no-op and mid-run snapshots do not perturb the decision sequence).
func (a *adaptiveState) stats() AdaptiveStats {
	a.finishRound()
	return AdaptiveStats{
		Rounds:           a.ringN,
		Mode:             a.mode,
		Transport:        a.transport,
		Delta:            a.delta,
		Switches:         append([]AdaptiveSwitch(nil), a.switches...),
		RoundsInMode:     a.roundsInMode,
		ObservedNs:       a.observedNs,
		PredictedNs:      a.predictedNs,
		RegretNs:         a.regretNs,
		RecordedArrivals: a.recorded,
	}
}

// AdaptiveStats returns the adaptive strategy's decision telemetry, or nil
// for requests running a static strategy.
func (ps *Psend) AdaptiveStats() *AdaptiveStats {
	if ps.adapt == nil {
		return nil
	}
	s := ps.adapt.stats()
	return &s
}
