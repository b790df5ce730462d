package xport

// This file is the device side of the transport: one Provider per rank
// owns a single device context and protection domain, with one send and
// one receive CQ shared by every endpoint the rank creates. Completions
// are drained batch-wise by the rank's progress engine through Progress
// (receive CQ first, then the send CQ, 64 at a time).

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ibv"
	"repro/internal/sim"
)

// Provider is one rank's transport instance.
type Provider struct {
	rank   int
	wcCost time.Duration
	ctx    *ibv.Context
	pd     *ibv.PD
	sendCQ *ibv.CQ
	recvCQ *ibv.CQ

	// eps routes completions by queue-pair number: the HCA numbers its
	// QPs densely from 1, so QPN n sits at index n-1. Entries for QPs of
	// other contexts on the same HCA stay nil.
	eps []*Endpoint

	// wcs is Progress's batch buffer, allocated on the first drain so
	// that setup does not pay for it. The rank's progress try-lock rules
	// out re-entry, so one buffer per provider suffices.
	wcs []ibv.WC
}

// New opens a device context on the rank's HCA. wake is called when a
// completion lands on either CQ, as a completion channel would (the rank
// broadcasts its activity condition so WaitOn predicates re-evaluate),
// and wcCost is the CPU time Progress charges per drained completion.
func New(hca *ibv.HCA, rank int, wake func(), wcCost time.Duration) *Provider {
	ctx := hca.Open()
	v := &Provider{
		rank:   rank,
		wcCost: wcCost,
		ctx:    ctx,
		pd:     ctx.AllocPD(),
		sendCQ: ctx.CreateCQ(1 << 16),
		recvCQ: ctx.CreateCQ(1 << 16),
	}
	v.sendCQ.SetNotify(wake)
	v.recvCQ.SetNotify(wake)
	return v
}

// RegMem registers buf with the rank's protection domain.
func (v *Provider) RegMem(buf []byte) (Mem, error) {
	return v.pd.RegMR(buf)
}

// NewEndpoint creates a queue pair on the shared CQs, moves it to INIT,
// and routes its completions to cfg.OnCompletion.
func (v *Provider) NewEndpoint(cfg EndpointConfig) (*Endpoint, error) {
	if cfg.OnCompletion == nil {
		return nil, fmt.Errorf("xport: NewEndpoint requires OnCompletion")
	}
	qp, err := v.pd.CreateQP(ibv.QPConfig{
		SendCQ:         v.sendCQ,
		RecvCQ:         v.recvCQ,
		MaxSendWR:      cfg.MaxSendWR,
		MaxRecvWR:      cfg.MaxRecvWR,
		MaxOutstanding: cfg.MaxOutstanding,
	})
	if err != nil {
		return nil, err
	}
	if err := qp.ToInit(); err != nil {
		return nil, err
	}
	ep := &Endpoint{qp: qp, onComp: cfg.OnCompletion}
	for uint32(len(v.eps)) < qp.QPN() {
		v.eps = append(v.eps, nil)
	}
	v.eps[qp.QPN()-1] = ep
	return ep, nil
}

// Progress drains every completion currently queued, charging the rank's
// completion cost per item and dispatching each to its endpoint's
// OnCompletion callback; it returns the number drained. It drains the
// receive CQ in batches of 64 until empty, falling back to the send CQ,
// until both are dry. The rank calls it only under its progress
// try-lock, so it needs no locking of its own.
func (v *Provider) Progress(p *sim.Proc) int {
	if v.wcs == nil {
		v.wcs = make([]ibv.WC, 64)
	}
	wcs := v.wcs
	drained := 0
	for {
		n := v.recvCQ.Poll(wcs)
		if n == 0 {
			n = v.sendCQ.Poll(wcs)
		}
		if n == 0 {
			return drained
		}
		for _, wc := range wcs[:n] {
			p.Sleep(v.wcCost)
			var ep *Endpoint
			if i := wc.QPN - 1; i < uint32(len(v.eps)) {
				ep = v.eps[i]
			}
			if ep == nil {
				panic(fmt.Sprintf("xport: rank %d: completion for unregistered QPN %d: %+v", v.rank, wc.QPN, wc))
			}
			ep.onComp(p, completionOf(wc))
		}
		drained += n
	}
}

// completionOf converts a device work completion.
func completionOf(wc ibv.WC) Completion {
	return Completion{
		WRID:   wc.WRID,
		Status: statusOf(wc.Status),
		Op:     compOpOf(wc.Opcode),
		Bytes:  wc.ByteLen,
		Imm:    wc.Imm,
		HasImm: wc.HasImm,
	}
}

func statusOf(s ibv.Status) Status {
	switch s {
	case ibv.StatusSuccess:
		return StatusSuccess
	case ibv.StatusLocProtErr:
		return StatusLocProtErr
	case ibv.StatusRemAccessErr:
		return StatusRemAccessErr
	case ibv.StatusRNRRetryExceeded:
		return StatusRNR
	case ibv.StatusLenErr:
		return StatusLenErr
	case ibv.StatusWRFlushErr:
		return StatusFlushErr
	default:
		panic(fmt.Sprintf("xport: unknown ibv status %v", s))
	}
}

func compOpOf(op ibv.WCOpcode) CompOp {
	switch op {
	case ibv.WCSend:
		return CompSend
	case ibv.WCRDMAWrite:
		return CompWrite
	case ibv.WCRDMARead:
		return CompRead
	case ibv.WCRecv:
		return CompRecv
	case ibv.WCRecvRDMAWithImm:
		return CompRecvImm
	default:
		panic(fmt.Sprintf("xport: unknown ibv completion opcode %v", op))
	}
}

func sendOpcodeOf(op Op) (ibv.Opcode, error) {
	switch op {
	case OpSend:
		return ibv.OpSend, nil
	case OpWrite:
		return ibv.OpRDMAWrite, nil
	case OpWriteImm:
		return ibv.OpRDMAWriteImm, nil
	case OpRead:
		return ibv.OpRDMARead, nil
	default:
		return 0, fmt.Errorf("xport: unknown opcode %v", op)
	}
}

// Endpoint is one reliable connected queue pair minted by a Provider.
// The connect/accept contract: each side creates its endpoint, sends its
// Desc to the peer (rank control plane), and calls Connect with the
// peer's Desc; work may be posted only after Connect succeeds locally.
type Endpoint struct {
	qp     *ibv.QP
	onComp func(p *sim.Proc, c Completion)
	// sgeBuf is the reusable gather-list conversion scratch for non-read
	// sends: the device resolves the SGEs to memory before PostSend
	// returns, so the converted list need not outlive the call. The bytes
	// those SGEs name are a different matter: a non-inline WR reads them
	// when they land, so they must stay untouched until it completes (see
	// SendWR). Reads retain their scatter list until the response lands
	// and get a fresh slice.
	sgeBuf []ibv.SGE
}

// Desc returns the queue pair as the wire descriptor (the simulation's
// equivalent of a serialized QPN/LID pair).
func (ep *Endpoint) Desc() Desc { return ep.qp }

// Connect binds to the remote queue pair and transitions RTR then RTS.
func (ep *Endpoint) Connect(remote Desc) error {
	if err := ep.qp.ToRTR(remote); err != nil {
		return err
	}
	return ep.qp.ToRTS()
}

// sge converts s to a device SGE. The region must belong to the
// endpoint's protection domain: another rank's HCA hands out the same
// keys and addresses, so its region would resolve to this rank's memory.
func (ep *Endpoint) sge(s Seg) (ibv.SGE, error) {
	if s.Mem == nil || s.Mem.PD() != ep.qp.PD() {
		return ibv.SGE{}, fmt.Errorf("%w (region %p)", ErrForeignMem, s.Mem)
	}
	return s.Mem.SGEFor(s.Off, s.Len), nil
}

// PostSend converts the gather list and posts to the queue pair.
func (ep *Endpoint) PostSend(wr *SendWR) error {
	opcode, err := sendOpcodeOf(wr.Op)
	if err != nil {
		return err
	}
	var sges []ibv.SGE
	if wr.Op == OpRead {
		sges = make([]ibv.SGE, len(wr.Segs))
	} else {
		if cap(ep.sgeBuf) < len(wr.Segs) {
			ep.sgeBuf = make([]ibv.SGE, len(wr.Segs))
		}
		sges = ep.sgeBuf[:len(wr.Segs)]
	}
	for i, s := range wr.Segs {
		if sges[i], err = ep.sge(s); err != nil {
			return err
		}
	}
	if err := ep.qp.PostSend(ibv.SendWR{
		WRID:       wr.WRID,
		Opcode:     opcode,
		SGList:     sges,
		RemoteAddr: wr.RemoteAddr,
		RKey:       wr.RKey,
		Imm:        wr.Imm,
		Signaled:   wr.Signaled,
		Inline:     wr.Inline,
	}); err != nil {
		return spiErr(err)
	}
	return nil
}

// PostRecv posts a receive work request, converting the scatter list once
// and caching it in wr so reposts are allocation-free.
func (ep *Endpoint) PostRecv(wr *RecvWR) error {
	rw := wr.prep
	if rw == nil {
		rw = &ibv.RecvWR{WRID: wr.WRID}
		if len(wr.Segs) > 0 {
			rw.SGList = make([]ibv.SGE, len(wr.Segs))
			for i, s := range wr.Segs {
				var err error
				if rw.SGList[i], err = ep.sge(s); err != nil {
					return err
				}
			}
		}
		wr.prep = rw
	}
	if err := ep.qp.PostRecv(*rw); err != nil {
		return spiErr(err)
	}
	return nil
}

// spiErr wraps a device post error with its typed error class, keeping
// the ibv error in the chain. Errors without a class pass through.
func spiErr(err error) error {
	var class error
	switch {
	case errors.Is(err, ibv.ErrBadState):
		class = ErrNotConnected
	case errors.Is(err, ibv.ErrMRBounds), errors.Is(err, ibv.ErrBadLKey):
		class = ErrMemBounds
	case errors.Is(err, ibv.ErrInlineTooLarge):
		class = ErrTooLong
	case errors.Is(err, ibv.ErrSQFull), errors.Is(err, ibv.ErrRQFull):
		class = ErrQueueFull
	default:
		return err
	}
	return fmt.Errorf("%w: %w", class, err)
}

// Outstanding reports send WRs handed to the fabric and not yet acked.
func (ep *Endpoint) Outstanding() int { return ep.qp.Outstanding() }

// RecvQueueLen reports posted, unconsumed receive WRs.
func (ep *Endpoint) RecvQueueLen() int { return ep.qp.RecvQueueLen() }

// MaxInline reports the largest inline payload the endpoint accepts.
func (ep *Endpoint) MaxInline() int { return ep.qp.MaxInline() }
