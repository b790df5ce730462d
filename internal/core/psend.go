package core

import (
	"fmt"
	"time"

	"repro/internal/loggp"
	"repro/internal/mpi"
	"repro/internal/ploggp"
	"repro/internal/sim"
	"repro/internal/xport"
)

// defaultModel returns the PLogGP model with the Niagara-measured
// parameter set.
func defaultModel() *ploggp.Model { return ploggp.New(loggp.NiagaraMeasured()) }

const (
	// modelDelay is the laggard-delay input fed to the model at init time
	// (Section IV-C feeds "a delay value"): 4 ms, the value the paper
	// models with.
	modelDelay = 4 * time.Millisecond
	// maxAutoQPs caps the QP count a plan picks when Options.QPs is unset.
	maxAutoQPs = 16
)

// Psend is a persistent partitioned send request.
type Psend struct {
	e    *Engine
	r    *mpi.Rank
	opts Options
	plan Plan

	buf       []byte
	mr        xport.Mem
	userParts int
	partBytes int
	dest      int
	tag       int

	reqID   uint32
	peerReq uint32

	eps []xport.Endpoint
	// epLocks serialize concurrent Pready posters per endpoint; unlike
	// the baseline's library-wide lock, contention only arises between
	// group-completing threads that share an endpoint.
	epLocks []*sim.Resource
	// flagLock models the contended cache line of the arrival-flag array:
	// concurrent Pready callers take turns on the atomic add-and-fetch,
	// the effect the paper points to when explaining why minimum delta
	// grows with the partition count (Section V-C3).
	flagLock   *sim.Resource
	remoteAddr uint64
	remoteRKey uint32
	connected  bool

	credits int
	round   int

	groups       []*sendGroup
	sentParts    int
	postedWRs    int
	completedWRs int

	// adapt is the adaptive strategy's observer + switcher; nil for the
	// static strategies.
	adapt *adaptiveState

	// segScratch backs the one-element gather list of every posted WR.
	// PostSend consumes the list itself before returning (no park between
	// filling the scratch and the post), so one scratch per request
	// suffices and postRun allocates no slice per WR. The partition bytes
	// it names are read when they land; MPI already forbids touching them
	// before Wait, which returns only after every WR has completed.
	segScratch [1]xport.Seg
	// wrScratch is the reusable work request postRun posts through.
	wrScratch xport.SendWR
}

// sendGroup is the per-transport-partition send state for one round.
type sendGroup struct {
	start   int // first user partition of the group
	size    int
	arrived int
	ready   []bool
	sent    []bool
	// Timer-strategy state (Section IV-D).
	armed bool
	fired bool
	cond  *sim.Cond
}

// PsendInit initializes a persistent partitioned send of buf, split into
// the given number of equal user partitions, to (dest, tag). Everything
// here is non-blocking: endpoint connection and matching complete
// asynchronously, and the first Start polls until the remote buffer is
// ready (paper Section IV-A).
func (e *Engine) PsendInit(p *sim.Proc, buf []byte, partitions, dest, tag int, opts Options) (*Psend, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("core: PsendInit with empty buffer")
	}
	if partitions < 1 || len(buf)%partitions != 0 {
		return nil, fmt.Errorf("core: buffer of %d bytes not divisible into %d partitions", len(buf), partitions)
	}
	if dest < 0 || dest >= e.r.World().Size() {
		return nil, fmt.Errorf("core: destination rank %d out of range", dest)
	}
	plan, err := resolvePlan(opts, partitions, len(buf))
	if err != nil {
		return nil, err
	}
	mr, err := e.pv.RegMem(buf)
	if err != nil {
		return nil, err
	}
	ps := &Psend{
		e:         e,
		r:         e.r,
		opts:      opts,
		plan:      plan,
		buf:       buf,
		mr:        mr,
		userParts: partitions,
		partBytes: len(buf) / partitions,
		dest:      dest,
		tag:       tag,
		reqID:     e.allocReq(),
		flagLock:  sim.NewResource(e.r.Engine(), 1),
	}
	e.psends[ps.reqID] = ps
	if opts.Strategy == StrategyAdaptive {
		ps.adapt = newAdaptiveState(opts, plan, partitions, len(buf), defaultModel())
	}

	if opts.Strategy != StrategyBaseline {
		// Transport partitions spread over the plan's endpoints; the SQ
		// must hold a worst-case round (every user partition its own WR
		// under the timer strategy).
		for i := 0; i < plan.QPs; i++ {
			ep, err := e.pv.NewEndpoint(xport.EndpointConfig{
				MaxSendWR:      partitions + 16,
				MaxOutstanding: opts.MaxOutstandingPerQP,
				OnCompletion:   ps.onSendComp,
			})
			if err != nil {
				return nil, err
			}
			ps.eps = append(ps.eps, ep)
			ps.epLocks = append(ps.epLocks, sim.NewResource(e.r.Engine(), 1))
		}
	}
	e.r.SendCtrl(dest, ctrlSinit, sinitMsg{
		reqID:     ps.reqID,
		tag:       tag,
		userParts: partitions,
		bytes:     len(buf),
		strategy:  opts.Strategy,
		transport: plan.Transport,
		descs:     descsOf(ps.eps),
	})
	return ps, nil
}

// completeHandshake finishes connection setup when the receiver's reply
// arrives (control-handler context).
func (ps *Psend) completeHandshake(msg rinitMsg) {
	ps.peerReq = msg.reqID
	ps.remoteAddr = msg.addr
	ps.remoteRKey = msg.rkey
	if ps.opts.Strategy != StrategyBaseline {
		if len(msg.descs) != len(ps.eps) {
			ps.e.fail(fmt.Errorf("%w: endpoint count %d vs %d in handshake",
				ErrSetupMismatch, len(msg.descs), len(ps.eps)))
			return
		}
		for i, ep := range ps.eps {
			if err := ep.Connect(msg.descs[i]); err != nil {
				ps.e.fail(fmt.Errorf("core: sender Connect: %w", err))
				return
			}
		}
	}
	ps.connected = true
	ps.r.Wake()
}

// Plan returns the resolved aggregation plan (for experiments and tests).
func (ps *Psend) Plan() Plan { return ps.plan }

// Start arms the next communication round. The sender blocks until the
// receiver has granted the round (flags cleared, receive WRs replenished);
// for the first round this subsumes the paper's poll-until-remote-ready.
// A protocol error recorded during the handshake or a previous round is
// returned instead of blocking forever on a credit that cannot arrive.
//
// The per-transport-partition groups are built once and reset in place on
// later rounds: the plan is fixed at init time, so re-arming a persistent
// request allocates nothing.
func (ps *Psend) Start(p *sim.Proc) error {
	ps.round++
	if ps.adapt != nil && ps.round > 1 {
		// Round boundary: the request is quiescent (the application must
		// Wait before re-Starting), so the adaptive switcher may fold the
		// finished round into its observation ring and re-select the
		// design here without touching the hot path.
		ps.adapt.finishRound()
		if ps.adapt.decide(ps.round) && ps.adapt.transport != ps.plan.Transport {
			ps.replanGroups(ps.adapt.transport)
		}
	}
	ps.sentParts = 0
	ps.postedWRs = 0
	ps.completedWRs = 0
	if ps.groups == nil {
		ps.groups = make([]*sendGroup, 0, ps.plan.Transport)
		for g := 0; g < ps.plan.Transport; g++ {
			ps.groups = append(ps.groups, &sendGroup{
				start: g * ps.plan.GroupSize,
				size:  ps.plan.GroupSize,
				ready: make([]bool, ps.plan.GroupSize),
				sent:  make([]bool, ps.plan.GroupSize),
				cond:  sim.NewCond(ps.r.Engine()),
			})
		}
	} else {
		for _, g := range ps.groups {
			g.arrived = 0
			g.armed, g.fired = false, false
			for i := range g.ready {
				g.ready[i] = false
				g.sent[i] = false
			}
		}
	}
	p.Sleep(ps.r.World().Costs().StartOverhead)
	round := ps.round
	ps.r.WaitOn(p, func() bool {
		return (ps.connected && ps.credits >= round) || ps.e.err != nil
	})
	if err := ps.e.err; err != nil {
		return err
	}
	if ps.adapt != nil {
		ps.adapt.beginRound(p.Now())
	}
	return nil
}

// replanGroups adopts a new transport partition count chosen by the
// adaptive switcher. Called only at a round boundary (Start), off the hot
// path, so rebuilding the group array may allocate; the QP count and the
// endpoints are fixed for the request's lifetime, and every adaptive
// candidate keeps the per-endpoint partition load constant, so the
// receiver's worst-case receive-WR provisioning stays valid.
func (ps *Psend) replanGroups(transport int) {
	ps.plan.Transport = transport
	ps.plan.GroupSize = ps.userParts / transport
	ps.groups = nil // Start rebuilds them for the new plan
}

// Pready marks user partition i ready for transfer (callable from any
// thread of the parallel region). It returns ErrPartitionRange when i is
// outside [0, partitions) and ErrPartitionState when i was already marked
// ready this round.
func (ps *Psend) Pready(p *sim.Proc, i int) error {
	if i < 0 || i >= ps.userParts {
		return fmt.Errorf("%w: Pready partition %d outside [0,%d)", ErrPartitionRange, i, ps.userParts)
	}
	if ps.round == 0 {
		return fmt.Errorf("%w: Pready before Start", ErrPartitionState)
	}
	if err := ps.e.err; err != nil {
		return err
	}
	// The atomic add-and-fetch on the transport partition's flag array:
	// concurrent callers serialize on the cache line.
	ps.flagLock.Acquire(p)
	p.Sleep(ps.r.World().Costs().PreadyOverhead)
	ps.flagLock.Release()

	if ps.opts.Strategy == StrategyBaseline {
		return ps.baselinePready(p, i)
	}
	g := ps.groups[ps.plan.groupOf(i)]
	gi := i - g.start
	if g.ready[gi] {
		return fmt.Errorf("%w: Pready called twice for partition %d in round %d", ErrPartitionState, i, ps.round)
	}
	g.ready[gi] = true
	g.arrived++
	if ps.adapt != nil {
		// Observed after the flag-array serialization, matching what the
		// send path can act on; the duplicate guard above ensures exactly
		// one observation per partition per round.
		ps.adapt.recordArrival(i, p.Now())
	}

	if ps.opts.Strategy == StrategyTimerPLogGP ||
		(ps.adapt != nil && ps.adapt.mode == AdaptiveTimer) {
		return ps.timerPready(p, g, gi)
	}
	// Tuning-table and PLogGP aggregators: post the group's single WR
	// when every member partition has arrived.
	if g.arrived == g.size {
		return ps.postRun(p, g, 0, g.size)
	}
	return nil
}

// PreadyRange marks partitions [lo, hi) ready, as MPI_Pready_range does.
func (ps *Psend) PreadyRange(p *sim.Proc, lo, hi int) error {
	if lo < 0 || hi > ps.userParts || lo > hi {
		return fmt.Errorf("%w: PreadyRange [%d,%d) invalid for %d partitions", ErrPartitionRange, lo, hi, ps.userParts)
	}
	for i := lo; i < hi; i++ {
		if err := ps.Pready(p, i); err != nil {
			return err
		}
	}
	return nil
}

// PreadyList marks the listed partitions ready, as MPI_Pready_list does.
func (ps *Psend) PreadyList(p *sim.Proc, parts []int) error {
	for _, i := range parts {
		if err := ps.Pready(p, i); err != nil {
			return err
		}
	}
	return nil
}

// PbufPrepare blocks until the receiver's buffer is known to be ready for
// the current connection — the MPI_Pbuf_prepare extension the MPI Forum
// proposed for exactly the remote-readiness problem the paper works around
// by polling in the first MPI_Start (Section IV-A, reference [21]).
// Calling it between PsendInit and the first Start moves that poll out of
// the measured region; it is idempotent.
func (ps *Psend) PbufPrepare(p *sim.Proc) {
	ps.r.WaitOn(p, func() bool { return ps.connected })
}

// baselinePready sends partition i as its own message through the
// active-message layer, holding the library's post lock for the duration
// of the protocol send path — the lock contention the paper's
// 128-partition runs expose.
func (ps *Psend) baselinePready(p *sim.Proc, i int) error {
	lock := ps.r.PostLock()
	lock.Acquire(p)
	err := ps.e.msgr.SendMR(p, ps.dest, baselineHeader(ps.peerReq, i), ps.mr, i*ps.partBytes, ps.partBytes)
	p.Sleep(ps.r.World().Costs().PostLockHold)
	lock.Release()
	if err != nil {
		return fmt.Errorf("core: baseline SendMR: %w", err)
	}
	ps.sentParts++
	ps.r.Wake()
	return nil
}

// postRun posts one RDMA_WRITE_WITH_IMM covering user partitions
// [g.start+lo, g.start+lo+count) and marks them sent. It is the per-WR
// send path of every aggregating strategy — one call per transport
// partition per round — so it must not allocate: the gather list and work
// request are request-owned scratch, and the error branches return
// pre-built values.
//
//partib:hotpath
func (ps *Psend) postRun(p *sim.Proc, g *sendGroup, lo, count int) error {
	for k := lo; k < lo+count; k++ {
		if g.sent[k] || !g.ready[k] {
			return errPostRunState
		}
		g.sent[k] = true
	}
	first := g.start + lo
	bytes := count * ps.partBytes
	off := first * ps.partBytes
	epIdx := ps.plan.qpOf(ps.plan.groupOf(g.start))
	ep := ps.eps[epIdx]

	// The WR was pre-built at init time (Section IV-B); posting is a
	// doorbell under the endpoint's lock.
	lock := ps.epLocks[epIdx]
	lock.Acquire(p)
	p.Sleep(ps.r.World().Costs().PostOverhead)
	ps.segScratch[0] = xport.Seg{Mem: ps.mr, Off: off, Len: bytes}
	ps.wrScratch = xport.SendWR{
		WRID:       uint64(ps.reqID)<<32 | uint64(uint32(first)),
		Op:         xport.OpWriteImm,
		Segs:       ps.segScratch[:],
		RemoteAddr: ps.remoteAddr + uint64(off),
		RKey:       ps.remoteRKey,
		Imm:        EncodeImm(uint16(first), uint16(count)),
		Signaled:   true,
		Inline:     ps.opts.UseInline && bytes <= ep.MaxInline(),
	}
	err := ep.PostSend(&ps.wrScratch)
	lock.Release()
	if err != nil {
		return fmt.Errorf("core: PostSend transport partition: %w", err) //partlint:allow hotpathalloc cold failure path, run is already lost
	}
	ps.postedWRs++
	ps.sentParts += count
	ps.r.Wake()
	return nil
}

// onSendComp accounts a completed transport-partition WR. It runs inside
// the progress engine's completion drain, so the failure branch records a
// pre-built error on the engine instead of formatting one.
//
//partib:hotpath
func (ps *Psend) onSendComp(p *sim.Proc, c xport.Completion) {
	if !c.OK() {
		ps.e.fail(errSendCompletion)
		return
	}
	ps.completedWRs++
	if ps.adapt != nil && ps.done() {
		// The last acknowledgment of the round: done() flips only here
		// (postRun always leaves completedWRs < postedWRs), so this stamps
		// the round's completion instant exactly once.
		ps.adapt.noteDone(p.Now())
	}
}

// done reports whether the current round has fully completed on the
// sender: every partition sent and every posted WR acknowledged.
func (ps *Psend) done() bool {
	if ps.opts.Strategy == StrategyBaseline {
		return ps.sentParts == ps.userParts && ps.e.msgr.Quiescent()
	}
	return ps.sentParts == ps.userParts && ps.completedWRs == ps.postedWRs
}

// Test progresses communication once and reports whether the round is
// complete, as MPI_Test does. A recorded protocol error surfaces as
// (false, err).
func (ps *Psend) Test(p *sim.Proc) (bool, error) {
	if ps.done() {
		return true, nil
	}
	if err := ps.e.err; err != nil {
		return false, err
	}
	ps.r.Progress(p)
	return ps.done(), ps.e.err
}

// Wait blocks until the round completes, progressing communication, or
// until the engine records a protocol error, which it returns.
func (ps *Psend) Wait(p *sim.Proc) error {
	ps.r.WaitOn(p, func() bool { return ps.done() || ps.e.err != nil })
	if !ps.done() {
		return ps.e.err
	}
	return nil
}
