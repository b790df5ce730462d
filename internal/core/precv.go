package core

import (
	"fmt"
	"slices"

	"repro/internal/ibv"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Precv is a persistent partitioned receive request. Like Psend it reaches
// its buffer through its MR and its rank through its engine.
type Precv struct {
	e *Engine

	mr        *ibv.MR
	userParts int
	partBytes int
	source    int
	tag       int

	reqID   uint32
	peerReq uint32

	// Filled at match time from the sender's announcement.
	strategy  Strategy
	transport int
	qps       []*ibv.QP
	matched   bool

	arrived      []bool
	arrivedCount int
	round        int

	// availWRs counts receive WRs posted but not yet consumed, per QP;
	// Start tops each queue up to its worst-case need.
	availWRs []int
	// needWRs is Start's per-QP replenish target, computed once (the plan
	// is fixed after matching) so re-arming allocates nothing.
	needWRs []int
}

// PrecvInit initializes a persistent partitioned receive of buf from
// (source, tag). Like PsendInit it is non-blocking; matching happens when
// the sender's announcement arrives, in posted order per (source, tag).
func (e *Engine) PrecvInit(p *sim.Proc, buf []byte, partitions, source, tag int, opts Options) (*Precv, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("core: PrecvInit with empty buffer")
	}
	if partitions < 1 || len(buf)%partitions != 0 {
		return nil, fmt.Errorf("core: buffer of %d bytes not divisible into %d partitions", len(buf), partitions)
	}
	if source < 0 || source >= e.r.World().Size() {
		return nil, fmt.Errorf("core: source rank %d out of range", source)
	}
	mr, err := e.r.PD().RegMR(buf)
	if err != nil {
		return nil, err
	}
	pr := &Precv{
		e:         e,
		mr:        mr,
		userParts: partitions,
		partBytes: len(buf) / partitions,
		source:    source,
		tag:       tag,
		reqID:     e.allocReq(),
		arrived:   make([]bool, partitions),
	}
	e.precvs = putReq(e.precvs, pr.reqID, pr)

	for i, ps := range e.unexpected {
		if ps.from == source && ps.msg.tag == tag {
			e.unexpected = slices.Delete(e.unexpected, i, i+1)
			e.match(pr, ps.from, ps.msg)
			return pr, nil
		}
	}
	e.pendingRecvs = append(e.pendingRecvs, pr)
	return pr, nil
}

// Start arms the next round: arrival flags are cleared, receive work
// requests are replenished (they are consumed by RDMA_WRITE_WITH_IMM, so
// the worst case is one per user partition under the timer aggregator),
// and the sender is granted the round. It returns the engine's recorded
// protocol error if the match failed or a replenish post was rejected.
func (pr *Precv) Start(p *sim.Proc) error {
	pr.e.r.WaitOn(p, func() bool { return pr.matched || pr.e.err != nil })
	if err := pr.e.err; err != nil {
		return err
	}
	p.Sleep(mpi.StartOverhead)
	pr.round++
	for i := range pr.arrived {
		pr.arrived[i] = false
	}
	pr.arrivedCount = 0

	if pr.strategy != StrategyBaseline {
		if pr.availWRs == nil {
			pr.availWRs = make([]int, len(pr.qps))
			pr.needWRs = make([]int, len(pr.qps))
			groupSize := pr.userParts / pr.transport
			for g := 0; g < pr.transport; g++ {
				pr.needWRs[g%len(pr.qps)] += groupSize
			}
		}
		need := pr.needWRs
		recvPost := mpi.RecvPostOverhead
		for q, qp := range pr.qps {
			// RDMA_WRITE_WITH_IMM delivers only the immediate, so the
			// receive WR needs no scatter list.
			wr := ibv.RecvWR{WRID: uint64(pr.reqID)<<32 | uint64(q)}
			for pr.availWRs[q] < need[q] {
				p.Sleep(recvPost)
				if err := qp.PostRecv(wr); err != nil {
					return fmt.Errorf("core: PostRecv: %w", err)
				}
				pr.availWRs[q]++
			}
		}
	}
	pr.e.r.SendCtrl(pr.source, ctrlCredit, creditMsg{peerReq: pr.peerReq})
	return nil
}

// onComp handles an arriving transport partition (receive completion on
// one of the request's QPs): the immediate encodes which contiguous
// user partitions the WR carried. It runs once per RDMA_WRITE_WITH_IMM
// inside the progress engine's completion drain, so it must not allocate;
// failures are recorded on the engine through pre-built typed errors.
func (pr *Precv) onComp(p *sim.Proc, qpIdx int, wc ibv.WC) {
	if wc.Status != ibv.StatusSuccess {
		pr.e.fail(errRecvCompletion)
		return
	}
	if wc.Opcode != ibv.WCRecvRDMAWithImm || !wc.HasImm {
		pr.e.fail(errRecvUnexpected)
		return
	}
	start, count := DecodeImm(wc.Imm)
	pr.availWRs[qpIdx]--
	if err := pr.markArrived(int(start), int(count)); err != nil {
		pr.e.fail(err)
	}
}

// markArrived sets the arrival flags for user partitions
// [start, start+count). It runs on the completion drain path for every
// arriving transport partition, so the error branches return pre-built
// values instead of formatting.
func (pr *Precv) markArrived(start, count int) error {
	if start < 0 || count < 1 || start+count > pr.userParts {
		return errArrivalRange
	}
	for i := start; i < start+count; i++ {
		if pr.arrived[i] {
			return errDuplicateArrival
		}
		pr.arrived[i] = true
	}
	pr.arrivedCount += count
	return nil
}

// Parrived reports whether user partition i has arrived, progressing the
// library once if it has not — the paper's design: check the flag, and if
// unset try to acquire the progress lock (Section IV-A). It returns
// ErrPartitionRange when i is outside [0, partitions).
func (pr *Precv) Parrived(p *sim.Proc, i int) (bool, error) {
	if i < 0 || i >= pr.userParts {
		return false, fmt.Errorf("%w: Parrived partition %d outside [0,%d)", ErrPartitionRange, i, pr.userParts)
	}
	if pr.arrived[i] {
		return true, nil
	}
	if err := pr.e.err; err != nil {
		return false, err
	}
	pr.e.r.Progress(p)
	return pr.arrived[i], nil
}

// done reports whether every partition of the round has arrived.
func (pr *Precv) done() bool { return pr.arrivedCount == pr.userParts }

// Test progresses communication once and reports round completion. A
// recorded protocol error surfaces as (false, err).
func (pr *Precv) Test(p *sim.Proc) (bool, error) {
	if pr.done() {
		return true, nil
	}
	if err := pr.e.err; err != nil {
		return false, err
	}
	pr.e.r.Progress(p)
	return pr.done(), pr.e.err
}

// Wait blocks until every partition of the round has arrived, or until
// the engine records a protocol error, which it returns.
func (pr *Precv) Wait(p *sim.Proc) error {
	pr.e.r.WaitOn(p, func() bool { return pr.done() || pr.e.err != nil })
	if !pr.done() {
		return pr.e.err
	}
	return nil
}

// Arrived reports the number of partitions that have arrived this round.
func (pr *Precv) Arrived() int { return pr.arrivedCount }

// Buffer returns the receive buffer (the application owns it).
func (pr *Precv) Buffer() []byte { return pr.mr.Bytes() }
