package ibv

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// QPState is the queue-pair state machine position.
type QPState int

// Queue-pair states, mirroring ibv_qp_state.
const (
	StateReset QPState = iota
	StateInit
	StateRTR // ready to receive
	StateRTS // ready to send
	StateErr
)

func (s QPState) String() string {
	switch s {
	case StateReset:
		return "RESET"
	case StateInit:
		return "INIT"
	case StateRTR:
		return "RTR"
	case StateRTS:
		return "RTS"
	case StateErr:
		return "ERR"
	default:
		return "unknown state"
	}
}

// Opcode selects the operation a send work request performs.
type Opcode int

// Send work-request opcodes.
const (
	// OpSend is a two-sided send consuming a remote receive WR.
	OpSend Opcode = iota
	// OpRDMAWrite places data into remote memory without remote completion.
	OpRDMAWrite
	// OpRDMAWriteImm is IBV_WR_RDMA_WRITE_WITH_IMM: an RDMA write that also
	// consumes a remote receive WR and delivers 32 bits of immediate data —
	// the opcode the paper's design is built on.
	OpRDMAWriteImm
	// OpRDMARead fetches remote memory into the local gather list; it is
	// the operation the ConnectX outstanding-window limit really applies
	// to, and what a rendezvous-get protocol would use.
	OpRDMARead
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMAWriteImm:
		return "RDMA_WRITE_WITH_IMM"
	case OpRDMARead:
		return "RDMA_READ"
	default:
		return "unknown opcode"
	}
}

// SendWR is a send-side work request.
type SendWR struct {
	WRID       uint64
	Opcode     Opcode
	SGList     []SGE
	RemoteAddr uint64
	RKey       uint32
	Imm        uint32
	// Signaled requests a completion on the send CQ on success. Failed
	// WRs always complete, signaled or not.
	Signaled bool
	// Inline requests that the payload travel in the doorbell write
	// (IBV_SEND_INLINE); the total gather length must not exceed the
	// QP's MaxInline.
	Inline bool
}

// RecvWR is a receive-side work request. For RDMA-write-with-immediate
// arrivals the SGList may be empty: only the immediate is delivered.
type RecvWR struct {
	WRID   uint64
	SGList []SGE
}

// QPConfig configures queue-pair creation.
type QPConfig struct {
	SendCQ *CQ
	RecvCQ *CQ
	// MaxSendWR is the send-queue depth (posted and not yet completed).
	// Zero selects the default of 128.
	MaxSendWR int
	// MaxRecvWR is the receive-queue depth. Zero selects 1024.
	MaxRecvWR int
	// MaxOutstanding caps concurrently in-flight RDMA work requests, the
	// ConnectX-5 limit of 16 the paper works around with multiple QPs.
	// Zero selects 16.
	MaxOutstanding int
	// MaxInline is the largest payload postable with SendWR.Inline (the
	// data travels in the doorbell write). Zero selects 220 bytes, the
	// common mlx5 default.
	MaxInline int
}

const (
	defaultMaxSendWR      = 128
	defaultMaxRecvWR      = 1024
	defaultMaxOutstanding = 16
	defaultMaxInline      = 220
)

// sendCtx tracks one posted send WR through the fabric. Contexts are
// recycled per QP (see QP.takeCtx/releaseCtx): the gather-list and inline
// backing arrays and the deliver/ack callbacks bound to the context
// survive recycling, so a warm QP posts WRs without allocating.
type sendCtx struct {
	qp *QP
	wr SendWR
	// segs is the resolved gather list of a send or write. A non-inline
	// WR's bytes are read from it when they land (deliver), as the HCA
	// reads user memory while it transmits; an inline WR's single segment
	// is its post-time snapshot in inline. Reads leave it empty.
	segs   [][]byte
	inline []byte
	// bytes is the total gather length: the payload size of a send or
	// write, the request length of a read.
	bytes  int
	status Status
	// deliverFn/ackFn are the fabric callbacks for the common (write/send)
	// path, built once per context and reused across recycles.
	deliverFn func(sim.Time)
	ackFn     func(sim.Time)
}

// QP is a reliable-connection queue pair.
type QP struct {
	pd  *PD
	cfg QPConfig
	qpn uint32

	state  QPState
	remote *QP
	flow   *fabric.Flow
	// readFlow carries RDMA read responses (remote -> local direction).
	readFlow *fabric.Flow

	// rq[rqHead:] are the posted, unconsumed receive WRs: consumeRecv
	// advances rqHead, the queue resets when it drains, and PostRecv slides
	// the live tail to the front before it would grow the backing array,
	// so a queue that never drains still reuses its capacity.
	rq       []RecvWR
	rqHead   int
	sqLen    int
	inFlight int
	waitq    []*sendCtx
	// ctxFree recycles sendCtx structs once their WR is fully acked.
	ctxFree []*sendCtx
}

// takeCtx pops a recycled send context or builds a fresh one.
func (qp *QP) takeCtx() *sendCtx {
	if n := len(qp.ctxFree); n > 0 {
		ctx := qp.ctxFree[n-1]
		qp.ctxFree[n-1] = nil
		qp.ctxFree = qp.ctxFree[:n-1]
		return ctx
	}
	ctx := &sendCtx{qp: qp}
	ctx.deliverFn = func(at sim.Time) { ctx.qp.deliver(ctx, at) }
	ctx.ackFn = func(sim.Time) { ctx.qp.acked(ctx) }
	return ctx
}

// releaseCtx returns a context whose completion has been pushed to the
// free list. The backing arrays are kept for reuse; the WR and the
// gather-list slices are cleared so the memory they name can be collected.
func (qp *QP) releaseCtx(ctx *sendCtx) {
	ctx.wr = SendWR{}
	clear(ctx.segs)
	ctx.segs = ctx.segs[:0]
	ctx.inline = ctx.inline[:0]
	ctx.bytes = 0
	ctx.status = StatusSuccess
	qp.ctxFree = append(qp.ctxFree, ctx)
}

// CreateQP creates a queue pair in the RESET state.
func (pd *PD) CreateQP(cfg QPConfig) (*QP, error) {
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("ibv: CreateQP requires send and receive CQs")
	}
	if cfg.MaxSendWR == 0 {
		cfg.MaxSendWR = defaultMaxSendWR
	}
	if cfg.MaxRecvWR == 0 {
		cfg.MaxRecvWR = defaultMaxRecvWR
	}
	if cfg.MaxOutstanding == 0 {
		cfg.MaxOutstanding = defaultMaxOutstanding
	}
	if cfg.MaxInline == 0 {
		cfg.MaxInline = defaultMaxInline
	}
	if cfg.MaxSendWR < 1 || cfg.MaxRecvWR < 1 || cfg.MaxOutstanding < 1 {
		return nil, fmt.Errorf("ibv: CreateQP with non-positive queue limits")
	}
	h := pd.ctx.hca
	qp := &QP{pd: pd, cfg: cfg, qpn: h.nextQPN, state: StateReset}
	h.nextQPN++
	return qp, nil
}

// QPN returns the queue-pair number.
func (qp *QP) QPN() uint32 { return qp.qpn }

// State returns the current state.
func (qp *QP) State() QPState { return qp.state }

// PD returns the protection domain.
func (qp *QP) PD() *PD { return qp.pd }

// Outstanding reports send WRs handed to the fabric and not yet acked.
func (qp *QP) Outstanding() int { return qp.inFlight }

// MaxInline reports the largest inline payload the QP accepts.
func (qp *QP) MaxInline() int { return qp.cfg.MaxInline }

// ToInit transitions RESET→INIT.
func (qp *QP) ToInit() error {
	if qp.state != StateReset {
		return ErrBadState
	}
	qp.state = StateInit
	return nil
}

// ToRTR transitions INIT→RTR, binding the QP to its remote peer (the
// simulation's equivalent of programming the remote LID/QPN).
func (qp *QP) ToRTR(remote *QP) error {
	if qp.state != StateInit {
		return ErrBadState
	}
	if remote == nil {
		return fmt.Errorf("ibv: ToRTR with nil remote")
	}
	qp.remote = remote
	qp.state = StateRTR
	return nil
}

// ToRTS transitions RTR→RTS and opens the send path to the remote HCA.
func (qp *QP) ToRTS() error {
	if qp.state != StateRTR {
		return ErrBadState
	}
	src := qp.pd.ctx.hca.port
	dst := qp.remote.pd.ctx.hca.port
	// Flow identities are derived from the local QPN: even for the send
	// direction, odd for the RDMA-READ response direction. The peer's
	// own flows use its QPN with the opposite parity trick on its side,
	// so every flow between a port pair carries a distinct identity —
	// which both spreads QPs across equal-cost topology paths (ECMP by
	// flow hash) and keeps link-arbitration tie-breaks total.
	qp.flow = src.Fabric().NewFlowID(src, dst, uint64(qp.qpn)*2)
	qp.readFlow = src.Fabric().NewFlowID(dst, src, uint64(qp.qpn)*2+1)
	qp.state = StateRTS
	return nil
}

// SetError force-transitions the QP to the error state, flushing queued
// work requests (for failure injection; hardware reaches this state on any
// fatal completion).
func (qp *QP) SetError() { qp.toError() }

func (qp *QP) toError() {
	if qp.state == StateErr {
		return
	}
	qp.state = StateErr
	// Flush posted receives.
	for _, rwr := range qp.rq[qp.rqHead:] {
		qp.cfg.RecvCQ.push(WC{WRID: rwr.WRID, Status: StatusWRFlushErr, Opcode: WCRecv, QPN: qp.qpn})
	}
	qp.rq, qp.rqHead = nil, 0
	// Flush sends not yet handed to the fabric.
	for _, ctx := range qp.waitq {
		qp.sqLen--
		qp.cfg.SendCQ.push(WC{WRID: ctx.wr.WRID, Status: StatusWRFlushErr, Opcode: sendWCOpcode(ctx.wr.Opcode), QPN: qp.qpn})
	}
	qp.waitq = nil
}

func sendWCOpcode(op Opcode) WCOpcode {
	switch op {
	case OpSend:
		return WCSend
	case OpRDMARead:
		return WCRDMARead
	default:
		return WCRDMAWrite
	}
}

// PostRecv posts a receive work request. Allowed from INIT onward.
func (qp *QP) PostRecv(wr RecvWR) error {
	switch qp.state {
	case StateInit, StateRTR, StateRTS:
	default:
		return ErrBadState
	}
	if qp.RecvQueueLen() >= qp.cfg.MaxRecvWR {
		return ErrRQFull
	}
	// Validate scatter elements eagerly; hardware validates WQE contents
	// at post time.
	for _, sge := range wr.SGList {
		if _, err := qp.pd.resolveSGE(sge); err != nil {
			return err
		}
	}
	if len(qp.rq) == cap(qp.rq) && qp.rqHead > 0 {
		n := copy(qp.rq, qp.rq[qp.rqHead:])
		clear(qp.rq[n:])
		qp.rq, qp.rqHead = qp.rq[:n], 0
	}
	qp.rq = append(qp.rq, wr)
	return nil
}

// RecvQueueLen reports posted, unconsumed receive WRs.
func (qp *QP) RecvQueueLen() int { return len(qp.rq) - qp.rqHead }

// PostSend posts a send work request, as ibv_post_send does. The gather
// list is validated and resolved now, so a bad SGE fails the post, but the
// bytes it names are read only when they land at the responder, as the HCA
// reads user memory while it transmits: the caller must not modify them
// until the WR completes (MPI forbids touching a partition between
// MPI_Pready and MPI_Wait in the layer above). An inline WR's payload is
// copied here instead, so its buffer is reusable once PostSend returns.
func (qp *QP) PostSend(wr SendWR) error {
	if qp.state != StateRTS {
		return ErrBadState
	}
	if len(wr.SGList) == 0 {
		return ErrEmptySGList
	}
	isRDMA := wr.Opcode == OpRDMAWrite || wr.Opcode == OpRDMAWriteImm || wr.Opcode == OpRDMARead
	if isRDMA && (wr.RKey == 0 || wr.RemoteAddr == 0) {
		return ErrNoRemote
	}
	if wr.Opcode == OpRDMARead && wr.Inline {
		return ErrInlineTooLarge // reads have no payload to inline
	}
	if qp.sqLen >= qp.cfg.MaxSendWR {
		return ErrSQFull
	}
	total := 0
	for _, sge := range wr.SGList {
		total += sge.Length
	}
	if wr.Inline && total > qp.cfg.MaxInline {
		return ErrInlineTooLarge
	}
	ctx := qp.takeCtx()
	if wr.Opcode == OpRDMARead {
		// Validate the local scatter list now; data arrives later.
		for _, sge := range wr.SGList {
			if _, err := qp.pd.resolveSGE(sge); err != nil {
				qp.releaseCtx(ctx)
				return err
			}
		}
	} else {
		for _, sge := range wr.SGList {
			b, err := qp.pd.resolveSGE(sge)
			if err != nil {
				qp.releaseCtx(ctx)
				return err
			}
			ctx.segs = append(ctx.segs, b)
		}
		if wr.Inline {
			for _, b := range ctx.segs {
				ctx.inline = append(ctx.inline, b...)
			}
			clear(ctx.segs)
			ctx.segs = append(ctx.segs[:0], ctx.inline)
		}
		// Only a read's scatter list is consulted after the post; dropping
		// the others keeps callers free to reuse their SGE scratch.
		wr.SGList = nil
	}
	ctx.wr, ctx.bytes, ctx.status = wr, total, StatusSuccess
	qp.sqLen++
	if qp.inFlight < qp.cfg.MaxOutstanding {
		qp.dispatch(ctx)
	} else {
		qp.waitq = append(qp.waitq, ctx)
	}
	return nil
}

// dispatch hands a send context to the fabric flow.
func (qp *QP) dispatch(ctx *sendCtx) {
	qp.inFlight++
	if ctx.wr.Opcode == OpRDMARead {
		// Request travels forward (header-sized), the data streams back
		// on the response flow; the requester's completion is the
		// response arrival. The completion is scheduled from the response
		// delivery — which runs on the requester's engine — rather than
		// through the response flow's OnAck: that callback would run on
		// the responder's engine (the response flow's source), and the
		// completion mutates the requester's CQ. The instant is the same
		// either way: response arrival plus the ack latency.
		qp.flow.Send(fabric.Message{
			Bytes: 16,
			OnDeliver: func(at sim.Time) {
				data, ok := qp.readRemote(ctx)
				if !ok {
					// Error completion after a response-latency bubble.
					qp.readFlow.Send(fabric.Message{
						Bytes:     0,
						OnDeliver: func(at sim.Time) { qp.completeRead(ctx, at) },
					})
					return
				}
				qp.readFlow.Send(fabric.Message{
					Bytes: len(data),
					OnDeliver: func(at sim.Time) {
						qp.scatterRead(ctx, data)
						qp.completeRead(ctx, at)
					},
				})
			},
		})
		return
	}
	// The context's pre-bound callbacks avoid two closure allocations per
	// posted WR on the write/send fast path.
	qp.flow.Send(fabric.Message{
		Bytes:     ctx.bytes,
		Inline:    ctx.wr.Inline,
		OnDeliver: ctx.deliverFn,
		OnAck:     ctx.ackFn,
	})
}

// fireReadComplete is the typed-event trampoline for RDMA read
// completions (see completeRead).
func fireReadComplete(_ sim.Time, arg any) {
	ctx := arg.(*sendCtx)
	ctx.qp.acked(ctx)
}

// completeRead schedules the requester-side completion of an RDMA read,
// one ack latency after the response arrival, on the requester's engine
// (it runs inside the response delivery, which the fabric executes there).
func (qp *QP) completeRead(ctx *sendCtx, arrivedAt sim.Time) {
	e := qp.pd.ctx.hca.eng
	ack := qp.pd.ctx.hca.port.Fabric().Config().AckLatency
	e.AtCall(arrivedAt.Add(ack), fireReadComplete, ctx)
}

// readRemote resolves and snapshots the remote range of an RDMA read.
func (qp *QP) readRemote(ctx *sendCtx) ([]byte, bool) {
	remote := qp.remote
	if remote.state == StateErr {
		ctx.status = StatusRemAccessErr
		return nil, false
	}
	mr, ok := remote.pd.ctx.hca.lookupMR(ctx.wr.RKey)
	if !ok || mr.pd != remote.pd {
		ctx.status = StatusRemAccessErr
		remote.toError()
		return nil, false
	}
	src, ok := mr.slice(ctx.wr.RemoteAddr, ctx.bytes)
	if !ok {
		ctx.status = StatusRemAccessErr
		remote.toError()
		return nil, false
	}
	return append([]byte(nil), src...), true
}

// scatterRead places a read response into the local gather list.
func (qp *QP) scatterRead(ctx *sendCtx, data []byte) {
	off := 0
	for _, sge := range ctx.wr.SGList {
		b, err := qp.pd.resolveSGE(sge)
		if err != nil {
			ctx.status = StatusLocProtErr
			return
		}
		off += copy(b, data[off:])
	}
}

// deliver executes the responder side when the last byte arrives. This is
// where the payload moves, once, from the requester's gather list into
// the responder's memory. Under sharding it runs on the responder's
// engine, and the requester's completion lands at least one ack latency
// (≥ the shard lookahead) later, so the requester cannot legally touch
// the gather list before this read.
func (qp *QP) deliver(ctx *sendCtx, _ sim.Time) {
	remote := qp.remote
	if remote.state == StateErr {
		ctx.status = StatusRemAccessErr
		return
	}
	switch ctx.wr.Opcode {
	case OpRDMAWrite, OpRDMAWriteImm:
		mr, ok := remote.pd.ctx.hca.lookupMR(ctx.wr.RKey)
		if !ok || mr.pd != remote.pd {
			ctx.status = StatusRemAccessErr
			remote.toError()
			return
		}
		dst, ok := mr.slice(ctx.wr.RemoteAddr, ctx.bytes)
		if !ok {
			ctx.status = StatusRemAccessErr
			remote.toError()
			return
		}
		for _, b := range ctx.segs {
			dst = dst[copy(dst, b):]
		}
		if ctx.wr.Opcode == OpRDMAWriteImm {
			rwr, ok := remote.consumeRecv()
			if !ok {
				ctx.status = StatusRNRRetryExceeded
				remote.toError()
				return
			}
			remote.cfg.RecvCQ.push(WC{
				WRID:    rwr.WRID,
				Status:  StatusSuccess,
				Opcode:  WCRecvRDMAWithImm,
				ByteLen: ctx.bytes,
				Imm:     ctx.wr.Imm,
				HasImm:  true,
				QPN:     remote.qpn,
			})
		}
	case OpSend:
		rwr, ok := remote.consumeRecv()
		if !ok {
			ctx.status = StatusRNRRetryExceeded
			remote.toError()
			return
		}
		if !remote.scatter(rwr, ctx.segs, ctx.bytes) {
			ctx.status = StatusRemAccessErr
			return
		}
		remote.cfg.RecvCQ.push(WC{
			WRID:    rwr.WRID,
			Status:  StatusSuccess,
			Opcode:  WCRecv,
			ByteLen: ctx.bytes,
			QPN:     remote.qpn,
		})
	default:
		panic(fmt.Sprintf("ibv: unknown opcode %v", ctx.wr.Opcode))
	}
}

// consumeRecv pops the oldest receive WR.
func (qp *QP) consumeRecv() (RecvWR, bool) {
	if qp.RecvQueueLen() == 0 {
		return RecvWR{}, false
	}
	rwr := qp.rq[qp.rqHead]
	qp.rq[qp.rqHead] = RecvWR{}
	qp.rqHead++
	if qp.rqHead == len(qp.rq) {
		qp.rq, qp.rqHead = qp.rq[:0], 0
	}
	return rwr, true
}

// scatter places an n-byte SEND payload, gathered from segs, into a
// receive WR's scatter list: one pass with a cursor on each side. A payload
// longer than the posted buffers is a responder length error, detected
// before any byte moves.
func (qp *QP) scatter(rwr RecvWR, segs [][]byte, n int) bool {
	capacity := 0
	for _, sge := range rwr.SGList {
		capacity += sge.Length
	}
	if n > capacity {
		qp.cfg.RecvCQ.push(WC{WRID: rwr.WRID, Status: StatusLenErr, Opcode: WCRecv, QPN: qp.qpn})
		qp.toError()
		return false
	}
	si, so := 0, 0 // gather cursor: segment and offset within it
	for _, sge := range rwr.SGList {
		if n == 0 {
			break
		}
		b, err := qp.pd.resolveSGE(sge)
		if err != nil {
			qp.cfg.RecvCQ.push(WC{WRID: rwr.WRID, Status: StatusLocProtErr, Opcode: WCRecv, QPN: qp.qpn})
			qp.toError()
			return false
		}
		for len(b) > 0 && n > 0 {
			c := copy(b, segs[si][so:])
			b, so, n = b[c:], so+c, n-c
			if so == len(segs[si]) {
				si, so = si+1, 0
			}
		}
	}
	return true
}

// acked finishes a send WR at completion time on the requester.
func (qp *QP) acked(ctx *sendCtx) {
	qp.inFlight--
	qp.sqLen--
	if ctx.status != StatusSuccess {
		qp.cfg.SendCQ.push(WC{
			WRID:   ctx.wr.WRID,
			Status: ctx.status,
			Opcode: sendWCOpcode(ctx.wr.Opcode),
			QPN:    qp.qpn,
		})
		qp.toError()
		qp.releaseCtx(ctx)
		return
	}
	if ctx.wr.Signaled {
		qp.cfg.SendCQ.push(WC{
			WRID:    ctx.wr.WRID,
			Status:  StatusSuccess,
			Opcode:  sendWCOpcode(ctx.wr.Opcode),
			ByteLen: ctx.bytes,
			QPN:     qp.qpn,
		})
	}
	qp.releaseCtx(ctx)
	// Refill the in-flight window from the wait queue.
	for qp.inFlight < qp.cfg.MaxOutstanding && len(qp.waitq) > 0 {
		next := qp.waitq[0]
		qp.waitq = qp.waitq[1:]
		qp.dispatch(next)
	}
}
