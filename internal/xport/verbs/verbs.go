// Package verbs adapts the simulated InfiniBand device (internal/ibv over
// internal/fabric) to the provider-neutral transport SPI (internal/xport).
//
// One provider instance per rank owns the layout the paper's module uses:
// a single device context and protection domain, with one send and one
// receive CQ shared by every endpoint the rank creates. Completions are
// drained batch-wise by the host's progress engine through Progress,
// which preserves the pre-SPI drain order exactly (receive CQ first, then
// the send CQ, 64 at a time) so simulated timelines are unchanged.
//
// The provider inherits the device's buffer contract (xport.SendWR): a
// non-inline WR's payload is read from the caller's memory when it lands
// at the peer, so it must stay untouched until the WR completes.
package verbs

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ibv"
	"repro/internal/sim"
	"repro/internal/ucx"
	"repro/internal/xport"
)

// Name is the provider's registry name.
const Name = "verbs"

func init() { xport.Register(Name, New) }

// Provider is one rank's verbs backend instance.
type Provider struct {
	host   xport.Host
	ctx    *ibv.Context
	pd     *ibv.PD
	sendCQ *ibv.CQ
	recvCQ *ibv.CQ

	// eps routes completions by queue-pair number.
	eps map[uint32]*endpoint
}

// New instantiates the provider for a host whose Hardware is a
// *cluster.Node carrying the rank's HCA.
func New(h xport.Host) (xport.Provider, error) {
	node, ok := h.Hardware().(*cluster.Node)
	if !ok {
		return nil, fmt.Errorf("verbs: host hardware %T is not a *cluster.Node", h.Hardware())
	}
	ctx := node.HCA.Open()
	v := &Provider{
		host:   h,
		ctx:    ctx,
		pd:     ctx.AllocPD(),
		sendCQ: ctx.CreateCQ(1 << 16),
		recvCQ: ctx.CreateCQ(1 << 16),
		eps:    make(map[uint32]*endpoint),
	}
	// Completions arriving on either CQ wake procs blocked in the host's
	// WaitOn, as a completion channel would.
	v.sendCQ.SetNotify(h.Wake)
	v.recvCQ.SetNotify(h.Wake)
	h.AddProgressSource(v)
	return v, nil
}

// Name returns "verbs".
func (v *Provider) Name() string { return Name }

// Caps advertises the ConnectX-5-like device limits and the eager
// thresholds the paper observes in the middleware running over it.
func (v *Provider) Caps() xport.Caps {
	return xport.Caps{
		WriteImm:       true,
		MaxInline:      220,
		MaxOutstanding: 16,
		EagerMax:       1 << 10,
		RndvThreshold:  32 << 10,
	}
}

// RegMem registers buf with the rank's protection domain. The returned
// Mem is the *ibv.MR itself.
func (v *Provider) RegMem(buf []byte) (xport.Mem, error) {
	mr, err := v.pd.RegMR(buf)
	if err != nil {
		return nil, err
	}
	return mr, nil
}

// NewEndpoint creates a queue pair on the shared CQs, moves it to INIT,
// and routes its completions to cfg.OnCompletion.
func (v *Provider) NewEndpoint(cfg xport.EndpointConfig) (xport.Endpoint, error) {
	if cfg.OnCompletion == nil {
		return nil, fmt.Errorf("verbs: NewEndpoint requires OnCompletion")
	}
	qp, err := v.pd.CreateQP(ibv.QPConfig{
		SendCQ:         v.sendCQ,
		RecvCQ:         v.recvCQ,
		MaxSendWR:      cfg.MaxSendWR,
		MaxRecvWR:      cfg.MaxRecvWR,
		MaxOutstanding: cfg.MaxOutstanding,
		MaxInline:      cfg.MaxInline,
	})
	if err != nil {
		return nil, err
	}
	if err := qp.ToInit(); err != nil {
		return nil, err
	}
	ep := &endpoint{qp: qp, onComp: cfg.OnCompletion}
	v.eps[qp.QPN()] = ep
	return ep, nil
}

// NewMessenger builds the UCX-like active-message engine over this
// provider — the middleware the paper's baseline rides on.
func (v *Provider) NewMessenger(cfg xport.MessengerConfig) (xport.Messenger, error) {
	return ucx.New(v.host, v, cfg)
}

// Progress drains both CQs, charging the host's completion cost per
// completion and dispatching each to its endpoint. The loop replicates
// the pre-SPI rank progress engine: drain the receive CQ in batches of 64
// until empty, falling back to the send CQ, until both are dry.
func (v *Provider) Progress(p *sim.Proc) int {
	drained := 0
	var wcs [64]ibv.WC
	for {
		n := v.recvCQ.Poll(wcs[:])
		if n == 0 {
			n = v.sendCQ.Poll(wcs[:])
		}
		if n == 0 {
			return drained
		}
		for _, wc := range wcs[:n] {
			p.Sleep(v.host.CompletionCost())
			ep, ok := v.eps[wc.QPN]
			if !ok {
				panic(fmt.Sprintf("verbs: rank %d: completion for unregistered QPN %d: %+v", v.host.ID(), wc.QPN, wc))
			}
			ep.onComp(p, completionOf(wc))
		}
		drained += n
	}
}

// completionOf converts a verbs work completion to the SPI form.
func completionOf(wc ibv.WC) xport.Completion {
	return xport.Completion{
		WRID:   wc.WRID,
		Status: statusOf(wc.Status),
		Op:     compOpOf(wc.Opcode),
		Bytes:  wc.ByteLen,
		Imm:    wc.Imm,
		HasImm: wc.HasImm,
	}
}

func statusOf(s ibv.Status) xport.Status {
	switch s {
	case ibv.StatusSuccess:
		return xport.StatusSuccess
	case ibv.StatusLocProtErr:
		return xport.StatusLocProtErr
	case ibv.StatusRemAccessErr:
		return xport.StatusRemAccessErr
	case ibv.StatusRNRRetryExceeded:
		return xport.StatusRNR
	case ibv.StatusLenErr:
		return xport.StatusLenErr
	case ibv.StatusWRFlushErr:
		return xport.StatusFlushErr
	default:
		panic(fmt.Sprintf("verbs: unknown ibv status %v", s))
	}
}

func compOpOf(op ibv.WCOpcode) xport.CompOp {
	switch op {
	case ibv.WCSend:
		return xport.CompSend
	case ibv.WCRDMAWrite:
		return xport.CompWrite
	case ibv.WCRDMARead:
		return xport.CompRead
	case ibv.WCRecv:
		return xport.CompRecv
	case ibv.WCRecvRDMAWithImm:
		return xport.CompRecvImm
	default:
		panic(fmt.Sprintf("verbs: unknown ibv completion opcode %v", op))
	}
}

func sendOpcodeOf(op xport.Op) (ibv.Opcode, error) {
	switch op {
	case xport.OpSend:
		return ibv.OpSend, nil
	case xport.OpWrite:
		return ibv.OpRDMAWrite, nil
	case xport.OpWriteImm:
		return ibv.OpRDMAWriteImm, nil
	case xport.OpRead:
		return ibv.OpRDMARead, nil
	default:
		return 0, fmt.Errorf("verbs: unknown opcode %v", op)
	}
}

// endpoint is one queue pair adapted to the SPI.
type endpoint struct {
	qp     *ibv.QP
	onComp func(p *sim.Proc, c xport.Completion)
	// sgeBuf is the reusable gather-list conversion scratch for non-read
	// sends: the device resolves the SGEs to memory before PostSend
	// returns, so the converted list need not outlive the call. The bytes
	// those SGEs name are a different matter: a non-inline WR reads them
	// when they land, so they must stay untouched until it completes (see
	// xport.SendWR). Reads retain their scatter list until the response
	// lands and get a fresh slice.
	sgeBuf []ibv.SGE
}

// Desc returns the queue pair as the wire descriptor (the simulation's
// equivalent of a serialized QPN/LID pair).
func (ep *endpoint) Desc() xport.Desc { return ep.qp }

// Connect binds to the remote queue pair and transitions RTR then RTS.
func (ep *endpoint) Connect(remote xport.Desc) error {
	rqp, ok := remote.(*ibv.QP)
	if !ok {
		return fmt.Errorf("%w: %T is not a verbs descriptor", xport.ErrBadDesc, remote)
	}
	if err := ep.qp.ToRTR(rqp); err != nil {
		return err
	}
	return ep.qp.ToRTS()
}

// PostSend converts the gather list and posts to the queue pair.
func (ep *endpoint) PostSend(wr *xport.SendWR) error {
	opcode, err := sendOpcodeOf(wr.Op)
	if err != nil {
		return err
	}
	var sges []ibv.SGE
	if wr.Op == xport.OpRead {
		sges = make([]ibv.SGE, len(wr.Segs))
	} else {
		if cap(ep.sgeBuf) < len(wr.Segs) {
			ep.sgeBuf = make([]ibv.SGE, len(wr.Segs))
		}
		sges = ep.sgeBuf[:len(wr.Segs)]
	}
	for i, s := range wr.Segs {
		mr, ok := s.Mem.(*ibv.MR)
		if !ok {
			return fmt.Errorf("%w: %T is not a verbs Mem", xport.ErrForeignMem, s.Mem)
		}
		sges[i] = mr.SGEFor(s.Off, s.Len)
	}
	return ep.qp.PostSend(ibv.SendWR{
		WRID:       wr.WRID,
		Opcode:     opcode,
		SGList:     sges,
		RemoteAddr: wr.RemoteAddr,
		RKey:       wr.RKey,
		Imm:        wr.Imm,
		Signaled:   wr.Signaled,
		Inline:     wr.Inline,
	})
}

// PostRecv posts a receive work request, converting the scatter list once
// and caching it in wr.Prep so reposts are allocation-free.
func (ep *endpoint) PostRecv(wr *xport.RecvWR) error {
	rw, ok := wr.Prep.(*ibv.RecvWR)
	if !ok {
		rw = &ibv.RecvWR{WRID: wr.WRID}
		if len(wr.Segs) > 0 {
			rw.SGList = make([]ibv.SGE, len(wr.Segs))
			for i, s := range wr.Segs {
				mr, ok := s.Mem.(*ibv.MR)
				if !ok {
					return fmt.Errorf("%w: %T is not a verbs Mem", xport.ErrForeignMem, s.Mem)
				}
				rw.SGList[i] = mr.SGEFor(s.Off, s.Len)
			}
		}
		wr.Prep = rw
	}
	return ep.qp.PostRecv(*rw)
}

// Outstanding reports send WRs handed to the fabric and not yet acked.
func (ep *endpoint) Outstanding() int { return ep.qp.Outstanding() }

// RecvQueueLen reports posted, unconsumed receive WRs.
func (ep *endpoint) RecvQueueLen() int { return ep.qp.RecvQueueLen() }

// MaxInline reports the largest inline payload the endpoint accepts.
func (ep *endpoint) MaxInline() int { return ep.qp.MaxInline() }
