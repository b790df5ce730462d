// Package core implements the paper's contribution: MPI Partitioned
// Point-to-Point Communication mapped directly onto InfiniBand Verbs
// (Section IV), with the three aggregation designs under study plus the
// Open-MPI-persistent-style baseline they are evaluated against.
//
// # Terminology (paper Section IV-A)
//
// User partitions are the chunks the application marks ready with
// MPI_Pready. Transport partitions are the work requests the library
// actually posts; aggregation means multiple contiguous user partitions
// travel in a single RDMA_WRITE_WITH_IMM whose 32-bit immediate encodes
// (starting user partition, contiguous count) as two packed uint16s.
//
// # Lifecycle
//
// PsendInit/PrecvInit register the persistent buffers, pick the
// aggregation plan, create and asynchronously connect the endpoints, and
// match sender to receiver by (source rank, tag) in posted order — no
// wildcards, as the Partitioned interface specifies. Start arms a
// communication round (the first sender Start polls the progress engine
// until the remote buffer is ready, exactly as the paper does in lieu of
// MPI_Pbuf_prepare); Pready marks a user partition ready via an atomic
// add-and-fetch and posts the transport partition when its group is
// complete; Parrived/Wait complete the round. Requests are persistent:
// Start begins the next round reusing all resources.
//
// # Strategies
//
//   - StrategyBaseline: one message per user partition through the
//     UCX-like active-message engine — the `part_persist` stand-in.
//   - StrategyTuningTable: transport partition and QP counts from an
//     offline brute-force table (Section IV-B).
//   - StrategyPLogGP: counts from the PLogGP model at init time
//     (Section IV-C).
//   - StrategyTimerPLogGP: the PLogGP grouping plus the δ-timer early-bird
//     mechanism of Section IV-D — the first Pready in a group sleeps up to
//     δ and, on expiry, sends the largest contiguous ready runs so a
//     laggard cannot hold back the whole group.
//   - StrategyAdaptive: starts from the PLogGP plan and re-selects the
//     aggregation design at each round boundary from the Pready arrival
//     pattern it observed (see adaptive.go).
//
// The module posts verbs work requests (internal/ibv) on queue pairs it
// creates through its rank (mpi.Rank.CreateQP), whose progress engine
// drains their completions.
package core

import (
	"fmt"
	"slices"

	"repro/internal/ibv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// EncodeImm packs (starting user partition, contiguous count) into the
// 32-bit immediate exactly as Section IV-A describes: two uint16 values
// shifted into a __be32.
func EncodeImm(start, count uint16) uint32 {
	return uint32(start)<<16 | uint32(count)
}

// DecodeImm unpacks an immediate produced by EncodeImm.
func DecodeImm(imm uint32) (start, count uint16) {
	return uint16(imm >> 16), uint16(imm)
}

// Control-message kinds for the partitioned module.
const (
	ctrlSinit  = "part.sinit"
	ctrlRinit  = "part.rinit"
	ctrlCredit = "part.credit"
)

// sinitMsg announces a Psend to its matching receiver. Its qps, like
// rinitMsg's, is the request's own slice: a request's queue pairs are
// fixed once the message is sent, and the peer only reads them.
type sinitMsg struct {
	reqID     uint32
	tag       int
	userParts int
	bytes     int
	strategy  Strategy
	transport int
	qps       []*ibv.QP
}

// rinitMsg answers with the receiver's buffer and queue pairs.
type rinitMsg struct {
	peerReq uint32 // the sender's request id
	reqID   uint32 // the receiver's request id
	addr    uint64
	rkey    uint32
	qps     []*ibv.QP
}

// creditMsg grants the sender one round: the receiver has reset its
// arrival flags and replenished its receive work requests.
type creditMsg struct {
	peerReq uint32
}

// Engine is the per-rank partitioned-communication module. Create exactly
// one per rank; it owns the module's control handlers and, once the rank
// has a baseline request, its active-message transport.
type Engine struct {
	r *mpi.Rank
	// msgr carries baseline requests; messenger builds it on first use,
	// so a rank with only aggregating requests never has one.
	msgr *ucx.Transport

	// psends and precvs are indexed by request id (see putReq): allocReq
	// hands out 1, 2, 3, … across both kinds, so each holds nil at the
	// other kind's ids.
	nextReq uint32
	psends  []*Psend
	precvs  []*Precv
	// pendingRecvs holds the unmatched receive-inits in posted order and
	// unexpected the unmatched send-inits in arrival order. Matching is
	// by exact (source, tag) — the interface has no wildcards — and the
	// first match in either list wins, so both stay in order.
	pendingRecvs []*Precv
	unexpected   []pendingSinit

	// err records the first asynchronous protocol error. Completion and
	// control-message callbacks run at event context with no caller to
	// return to, so they record here and wake waiters; Start, Wait, Test,
	// and the Pready family surface the error to the application.
	err error
}

// fail records the first asynchronous protocol error and wakes every proc
// parked on the rank so blocked Wait/Start calls observe it.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.r.Wake()
}

// Err returns the first asynchronous protocol error recorded on the
// engine, or nil. Once set it is sticky: the module's state is undefined
// after a protocol error, as after MPI_ERRORS_ARE_FATAL would have fired.
func (e *Engine) Err() error { return e.err }

type pendingSinit struct {
	from int
	msg  sinitMsg
}

// NewEngine builds the partitioned module for a rank. provider must be
// "verbs" or empty, the one transport there is; any other name returns
// ErrUnknownProvider (wrapped).
func NewEngine(r *mpi.Rank, provider string) (*Engine, error) {
	if provider != "" && provider != "verbs" {
		return nil, fmt.Errorf("%w: %q (have verbs)", ErrUnknownProvider, provider)
	}
	e := &Engine{r: r}
	r.HandleCtrl(ctrlSinit, e.onSinit)
	r.HandleCtrl(ctrlRinit, e.onRinit)
	r.HandleCtrl(ctrlCredit, e.onCredit)
	return e, nil
}

// messenger returns the rank's active-message transport, building it on
// the first baseline request: a baseline PsendInit on the sender, the
// match of a baseline send-init on the receiver. The handshake orders the
// two: the sender posts no data before the receiver's rinit arrives, and
// the receiver sends the rinit from match.
func (e *Engine) messenger() *ucx.Transport {
	if e.msgr == nil {
		e.msgr = ucx.New(e.r)
		e.msgr.SetEagerHandler(e.onBaselineEager)
		e.msgr.SetRndv(e.baselineRndvTarget, e.onBaselineRndvDone)
	}
	return e.msgr
}

// Rank returns the rank this module serves.
func (e *Engine) Rank() *mpi.Rank { return e.r }

// allocReq hands out request ids; id 0 is reserved as "none".
func (e *Engine) allocReq() uint32 {
	e.nextReq++
	return e.nextReq
}

// putReq files v under request id in a table of one request kind. The
// entry for id sits at index id-1, so id 0 ("none") never resolves.
func putReq[T any](s []*T, id uint32, v *T) []*T {
	for uint32(len(s)) < id {
		s = append(s, nil)
	}
	s[id-1] = v
	return s
}

// getReq returns the request filed under id, or nil.
func getReq[T any](s []*T, id uint32) *T {
	if i := id - 1; i < uint32(len(s)) {
		return s[i]
	}
	return nil
}

// onSinit matches an arriving send-init against posted receive-inits in
// order, or queues it as unexpected.
func (e *Engine) onSinit(from int, data any) {
	msg := data.(sinitMsg)
	for i, pr := range e.pendingRecvs {
		if pr.source == from && pr.tag == msg.tag {
			e.pendingRecvs = slices.Delete(e.pendingRecvs, i, i+1)
			e.match(pr, from, msg)
			return
		}
	}
	e.unexpected = append(e.unexpected, pendingSinit{from: from, msg: msg})
}

// onRinit completes the sender side of the handshake.
func (e *Engine) onRinit(from int, data any) {
	msg := data.(rinitMsg)
	ps := getReq(e.psends, msg.peerReq)
	if ps == nil {
		e.fail(fmt.Errorf("%w: rinit for request %d on rank %d", ErrUnknownRequest, msg.peerReq, e.r.ID()))
		return
	}
	ps.completeHandshake(msg)
}

// onCredit grants the sender a round.
func (e *Engine) onCredit(from int, data any) {
	msg := data.(creditMsg)
	ps := getReq(e.psends, msg.peerReq)
	if ps == nil {
		e.fail(fmt.Errorf("%w: credit for request %d on rank %d", ErrMalformedCredit, msg.peerReq, e.r.ID()))
		return
	}
	ps.credits++
	e.r.Wake()
}

// baselineHeader packs the receiver request id and partition index into a
// transport active-message header.
func baselineHeader(recvReq uint32, part int) uint64 {
	return uint64(recvReq)<<32 | uint64(uint32(part))
}

func splitBaselineHeader(h uint64) (recvReq uint32, part int) {
	return uint32(h >> 32), int(uint32(h))
}

// onBaselineEager places an eager baseline partition into the user buffer
// and marks it arrived. The bounce copy-out cost was charged by the
// transport.
func (e *Engine) onBaselineEager(p *sim.Proc, from int, header uint64, data []byte) {
	recvReq, part := splitBaselineHeader(header)
	pr := getReq(e.precvs, recvReq)
	if pr == nil {
		e.fail(fmt.Errorf("%w: baseline arrival for request %d", ErrUnknownRequest, recvReq))
		return
	}
	copy(pr.mr.Bytes()[part*pr.partBytes:(part+1)*pr.partBytes], data)
	if err := pr.markArrived(part, 1); err != nil {
		e.fail(err)
	}
}

// baselineRndvTarget resolves the landing zone of a rendezvous partition.
func (e *Engine) baselineRndvTarget(from int, header uint64, size int) (*ibv.MR, int, bool) {
	recvReq, part := splitBaselineHeader(header)
	pr := getReq(e.precvs, recvReq)
	if pr == nil {
		return nil, 0, false
	}
	return pr.mr, part * pr.partBytes, true
}

// onBaselineRndvDone marks a rendezvous partition arrived.
func (e *Engine) onBaselineRndvDone(from int, header uint64, size int) {
	recvReq, part := splitBaselineHeader(header)
	pr := getReq(e.precvs, recvReq)
	if pr == nil {
		e.fail(fmt.Errorf("%w: baseline rndv completion for request %d", ErrUnknownRequest, recvReq))
		return
	}
	if err := pr.markArrived(part, 1); err != nil {
		e.fail(err)
		return
	}
	e.r.Wake()
}

// match wires a matched (Psend, Precv) pair: the receiver creates its
// queue pairs, connects them against the sender's, and replies with its
// buffer coordinates. Runs at control-handler (event) context.
func (e *Engine) match(pr *Precv, from int, msg sinitMsg) {
	if msg.userParts != pr.userParts {
		e.fail(fmt.Errorf("%w: partition count sender %d, receiver %d (tag %d)",
			ErrSetupMismatch, msg.userParts, pr.userParts, pr.tag))
		return
	}
	if msg.bytes != pr.mr.Len() {
		e.fail(fmt.Errorf("%w: buffer size sender %d, receiver %d (tag %d)",
			ErrSetupMismatch, msg.bytes, pr.mr.Len(), pr.tag))
		return
	}
	pr.strategy = msg.strategy
	pr.transport = msg.transport
	pr.peerReq = msg.reqID

	if msg.strategy == StrategyBaseline {
		e.messenger()
	} else {
		for i, remote := range msg.qps {
			qpIdx := i
			qp, err := e.r.CreateQP(ibv.QPConfig{MaxRecvWR: pr.userParts + 16},
				func(p *sim.Proc, wc ibv.WC) { pr.onComp(p, qpIdx, wc) })
			if err != nil {
				e.fail(fmt.Errorf("core: receiver CreateQP: %w", err))
				return
			}
			if err := qp.Connect(remote); err != nil {
				e.fail(fmt.Errorf("core: receiver Connect: %w", err))
				return
			}
			pr.qps = append(pr.qps, qp)
		}
	}
	pr.matched = true
	e.r.SendCtrl(from, ctrlRinit, rinitMsg{
		peerReq: msg.reqID,
		reqID:   pr.reqID,
		addr:    pr.mr.Addr(),
		rkey:    pr.mr.RKey(),
		qps:     pr.qps,
	})
	e.r.Wake()
}
