// Package shm is an intra-node shared-memory transport provider: a
// loopback backend with a LogGP-like cost profile (fixed per-message
// latency plus a per-byte copy gap at memory bandwidth) instead of the
// fabric's wire model. It exists to prove the xport seam is real — the
// aggregation strategies, pt2pt layer, and benchmarks run over it
// unchanged — and to open intra-node experiments the paper could not run
// on its two-node testbed.
//
// The provider implements the full verbs-like op set (send, RDMA write,
// write-with-immediate, RDMA read) so the UCX-like messenger rides it
// without modification. Transfers serialize per source endpoint (one
// memory channel per connection), and completions queue in the provider
// until the host's progress engine drains them. Payloads follow the
// xport.SendWR contract: a non-inline op is copied once, straight from the
// sender's segments into the destination, when its transfer lands; only
// inline ops are copied at post time.
package shm

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/ucx"
	"repro/internal/xport"
)

// Name is the provider's registry name.
const Name = "shm"

func init() { xport.Register(Name, New) }

// LogGP-like cost profile of the shared-memory channel.
const (
	// latency is the fixed per-message cost: the cache-coherent flag
	// handshake both sides perform.
	latency = 400 * time.Nanosecond
	// bytesPerNs is the copy bandwidth (~16 GB/s single-core memcpy).
	bytesPerNs = 16
)

// xferCost returns the channel occupancy of an n-byte transfer.
func xferCost(n int) time.Duration {
	return latency + time.Duration(n)*time.Nanosecond/bytesPerNs
}

// Endpoint defaults, mirroring the verbs device so window behavior is
// comparable across providers.
const (
	defMaxSendWR      = 128
	defMaxRecvWR      = 1024
	defMaxOutstanding = 16
	defMaxInline      = 220
)

// Provider is one rank's shared-memory backend instance.
type Provider struct {
	host xport.Host

	// mems indexes registered regions by rkey for remote access from peer
	// endpoints on the same node.
	mems     map[uint32]*mem
	nextKey  uint32
	nextAddr uint64

	// compQ is the completion reservoir drained by Progress; head avoids
	// quadratic pop-front.
	compQ []delivery
	head  int
}

// delivery is one queued completion awaiting the progress engine.
type delivery struct {
	ep *endpoint
	c  xport.Completion
}

// New instantiates the provider. It needs no hardware handle: the
// "device" is the node's memory system.
func New(h xport.Host) (xport.Provider, error) {
	pv := &Provider{host: h, mems: make(map[uint32]*mem), nextKey: 1, nextAddr: 1 << 20}
	h.AddProgressSource(pv)
	return pv, nil
}

// Name returns "shm".
func (pv *Provider) Name() string { return Name }

// Caps advertises the channel limits. Copy is cheap intra-node, so the
// eager and rendezvous thresholds sit well above the fabric's.
func (pv *Provider) Caps() xport.Caps {
	return xport.Caps{
		WriteImm:       true,
		MaxInline:      defMaxInline,
		MaxOutstanding: defMaxOutstanding,
		EagerMax:       8 << 10,
		RndvThreshold:  64 << 10,
		IntraNode:      true,
	}
}

// RegMem registers buf for local and remote access.
func (pv *Provider) RegMem(buf []byte) (xport.Mem, error) {
	m := &mem{pv: pv, buf: buf, addr: pv.nextAddr, rkey: pv.nextKey}
	pv.nextKey++
	pv.nextAddr += uint64(len(buf)) + 4096
	pv.mems[m.rkey] = m
	return m, nil
}

// NewEndpoint mints an unconnected endpoint.
func (pv *Provider) NewEndpoint(cfg xport.EndpointConfig) (xport.Endpoint, error) {
	if cfg.OnCompletion == nil {
		return nil, fmt.Errorf("shm: NewEndpoint requires OnCompletion")
	}
	ep := &endpoint{
		pv:             pv,
		onComp:         cfg.OnCompletion,
		maxSendWR:      cfg.MaxSendWR,
		maxRecvWR:      cfg.MaxRecvWR,
		maxOutstanding: cfg.MaxOutstanding,
		maxInline:      cfg.MaxInline,
	}
	if ep.maxSendWR == 0 {
		ep.maxSendWR = defMaxSendWR
	}
	if ep.maxRecvWR == 0 {
		ep.maxRecvWR = defMaxRecvWR
	}
	if ep.maxOutstanding == 0 {
		ep.maxOutstanding = defMaxOutstanding
	}
	if ep.maxInline == 0 {
		ep.maxInline = defMaxInline
	}
	return ep, nil
}

// NewMessenger builds the UCX-like active-message engine over this
// provider; the protocol layer is transport-neutral, only the thresholds
// and costs under it change.
func (pv *Provider) NewMessenger(cfg xport.MessengerConfig) (xport.Messenger, error) {
	return ucx.New(pv.host, pv, cfg)
}

// push queues a completion for the progress engine and wakes the host.
func (pv *Provider) push(ep *endpoint, c xport.Completion) {
	pv.compQ = append(pv.compQ, delivery{ep: ep, c: c})
	pv.host.Wake()
}

// Progress drains the completion reservoir, charging the host's
// completion cost per entry, exactly like the verbs CQ drain.
func (pv *Provider) Progress(p *sim.Proc) int {
	drained := 0
	for pv.head < len(pv.compQ) {
		d := pv.compQ[pv.head]
		pv.compQ[pv.head] = delivery{}
		pv.head++
		p.Sleep(pv.host.CompletionCost())
		d.ep.onComp(p, d.c)
		drained++
	}
	pv.compQ = pv.compQ[:0]
	pv.head = 0
	return drained
}

// mem is a registered region.
type mem struct {
	pv   *Provider
	buf  []byte
	addr uint64
	rkey uint32
	dead bool
}

func (m *mem) Bytes() []byte { return m.buf }
func (m *mem) Len() int      { return len(m.buf) }
func (m *mem) Addr() uint64  { return m.addr }
func (m *mem) RKey() uint32  { return m.rkey }

// Dereg removes the region; subsequent use fails.
func (m *mem) Dereg() error {
	if m.dead {
		return fmt.Errorf("%w: region already deregistered", xport.ErrMemBounds)
	}
	m.dead = true
	delete(m.pv.mems, m.rkey)
	return nil
}

// sendOp is one posted send-side work request.
type sendOp struct {
	wrid uint64
	op   xport.Op
	// segs is the op's resolved local memory: the gather list of a send or
	// write, read when the transfer lands, or the scatter list a read
	// fills. An inline op's single segment is its post-time snapshot.
	// segBuf backs the common one- and two-segment lists.
	segs     [][]byte
	segBuf   [2][]byte
	bytes    int
	remote   uint64
	rkey     uint32
	imm      uint32
	signaled bool
}

// arrival is a two-sided delivery (send or write-imm notification)
// waiting for — or matched against — a posted receive WR.
type arrival struct {
	src    *endpoint
	op     *sendOp
	bytes  int
	imm    uint32
	hasImm bool // write-imm: the data is already placed
}

// recvSlot is one posted receive WR.
type recvSlot struct {
	wrid uint64
	segs []xport.Seg
}

// endpoint is one connected shared-memory channel.
type endpoint struct {
	pv     *Provider
	onComp func(p *sim.Proc, c xport.Completion)
	peer   *endpoint

	maxSendWR      int
	maxRecvWR      int
	maxOutstanding int
	maxInline      int

	// inflight counts launched-not-completed transfers (the outstanding
	// window); sendQ parks posts beyond the window.
	inflight int
	sendQ    []*sendOp

	recvQ  []recvSlot
	parked []arrival

	// busyUntil serializes transfers on the channel (one copy engine per
	// source endpoint).
	busyUntil sim.Time
}

// Desc returns the endpoint itself: intra-node peers share an address
// space, so the descriptor needs no serialization.
func (ep *endpoint) Desc() xport.Desc { return ep }

// Connect binds to the remote endpoint. Both endpoints must live on the
// same node (the channel is a shared memory segment).
func (ep *endpoint) Connect(remote xport.Desc) error {
	rep, ok := remote.(*endpoint)
	if !ok {
		return fmt.Errorf("%w: %T is not a shm descriptor", xport.ErrBadDesc, remote)
	}
	if ep.pv.host.Hardware() != rep.pv.host.Hardware() {
		return fmt.Errorf("%w: rank %d and rank %d are on different nodes",
			xport.ErrCrossNode, ep.pv.host.ID(), rep.pv.host.ID())
	}
	ep.peer = rep
	return nil
}

// checkSegs validates a gather/scatter list against this provider.
func (ep *endpoint) checkSegs(segs []xport.Seg) (total int, err error) {
	for _, s := range segs {
		m, ok := s.Mem.(*mem)
		if !ok || m.pv != ep.pv {
			return 0, fmt.Errorf("%w: %T is not a shm Mem of this rank", xport.ErrForeignMem, s.Mem)
		}
		if m.dead {
			return 0, fmt.Errorf("%w: region deregistered", xport.ErrMemBounds)
		}
		if err := xport.CheckSeg(s); err != nil {
			return 0, err
		}
		total += s.Len
	}
	return total, nil
}

// PostSend posts a send-side work request. The segments are validated and
// resolved now but nothing is copied: a non-inline op reads them when its
// transfer lands (see xport.SendWR), and only an inline op is snapshotted
// here.
func (ep *endpoint) PostSend(wr *xport.SendWR) error {
	if ep.peer == nil {
		return fmt.Errorf("%w: shm endpoint has no peer", xport.ErrNotConnected)
	}
	switch wr.Op {
	case xport.OpSend, xport.OpWrite, xport.OpWriteImm, xport.OpRead:
	default:
		return fmt.Errorf("shm: unknown opcode %v", wr.Op)
	}
	total, err := ep.checkSegs(wr.Segs)
	if err != nil {
		return err
	}
	if wr.Inline && total > ep.maxInline {
		return fmt.Errorf("%w: inline payload %d B exceeds limit %d", xport.ErrTooLong, total, ep.maxInline)
	}
	if ep.inflight+len(ep.sendQ) >= ep.maxSendWR {
		return fmt.Errorf("%w: shm send queue depth %d", xport.ErrQueueFull, ep.maxSendWR)
	}
	op := &sendOp{
		wrid:     wr.WRID,
		op:       wr.Op,
		bytes:    total,
		remote:   wr.RemoteAddr,
		rkey:     wr.RKey,
		imm:      wr.Imm,
		signaled: wr.Signaled,
	}
	op.segs = op.segBuf[:0]
	for _, s := range wr.Segs {
		op.segs = append(op.segs, s.Mem.Bytes()[s.Off:s.Off+s.Len])
	}
	if wr.Inline && wr.Op != xport.OpRead {
		snap := make([]byte, 0, total)
		for _, b := range op.segs {
			snap = append(snap, b...)
		}
		op.segs = append(op.segs[:0], snap)
	}
	if ep.inflight < ep.maxOutstanding {
		ep.launch(op)
	} else {
		ep.sendQ = append(ep.sendQ, op)
	}
	return nil
}

// launch puts op on the channel: it occupies the channel for the LogGP
// cost of its length and completes when the copy lands.
func (ep *endpoint) launch(op *sendOp) {
	ep.inflight++
	e := ep.pv.host.Engine()
	start := e.Now()
	if start < ep.busyUntil {
		start = ep.busyUntil
	}
	done := start.Add(xferCost(op.bytes))
	ep.busyUntil = done
	e.At(done, func() { ep.complete(op) })
}

// complete runs when op's transfer finishes on the channel.
func (ep *endpoint) complete(op *sendOp) {
	ep.inflight--
	switch op.op {
	case xport.OpSend:
		ep.peer.deliver(arrival{src: ep, op: op, bytes: op.bytes})
	case xport.OpWrite, xport.OpWriteImm:
		dst, off, err := ep.peer.pv.resolve(op.remote, op.rkey, op.bytes)
		if err != nil {
			ep.pv.push(ep, xport.Completion{WRID: op.wrid, Status: xport.StatusRemAccessErr, Op: xport.CompWrite})
			break
		}
		for _, b := range op.segs {
			off += copy(dst.buf[off:], b)
		}
		if op.op == xport.OpWriteImm {
			ep.peer.deliver(arrival{src: ep, op: op, bytes: op.bytes, imm: op.imm, hasImm: true})
		} else if op.signaled {
			ep.pv.push(ep, xport.Completion{WRID: op.wrid, Status: xport.StatusSuccess, Op: xport.CompWrite, Bytes: op.bytes})
		}
	case xport.OpRead:
		src, off, err := ep.peer.pv.resolve(op.remote, op.rkey, op.bytes)
		if err != nil {
			ep.pv.push(ep, xport.Completion{WRID: op.wrid, Status: xport.StatusRemAccessErr, Op: xport.CompRead})
			break
		}
		for _, b := range op.segs {
			off += copy(b, src.buf[off:])
		}
		ep.pv.push(ep, xport.Completion{WRID: op.wrid, Status: xport.StatusSuccess, Op: xport.CompRead, Bytes: op.bytes})
	}
	ep.pump()
}

// pump launches parked sends as window slots free up.
func (ep *endpoint) pump() {
	for len(ep.sendQ) > 0 && ep.inflight < ep.maxOutstanding {
		op := ep.sendQ[0]
		copy(ep.sendQ, ep.sendQ[1:])
		ep.sendQ = ep.sendQ[:len(ep.sendQ)-1]
		ep.launch(op)
	}
}

// resolve maps (addr, rkey, n) to a registered region and offset.
func (pv *Provider) resolve(addr uint64, rkey uint32, n int) (*mem, int, error) {
	m, ok := pv.mems[rkey]
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown rkey %d", xport.ErrMemBounds, rkey)
	}
	off := int(addr - m.addr)
	if addr < m.addr || off+n > len(m.buf) {
		return nil, 0, fmt.Errorf("%w: remote range escapes region", xport.ErrMemBounds)
	}
	return m, off, nil
}

// deliver hands a two-sided arrival to this (receiving) endpoint,
// matching it against a posted receive WR or parking it until one is
// posted (the RNR condition, resolved by replenishment instead of a
// retry storm).
func (ep *endpoint) deliver(a arrival) {
	if len(ep.recvQ) == 0 {
		ep.parked = append(ep.parked, a)
		return
	}
	slot := ep.recvQ[0]
	copy(ep.recvQ, ep.recvQ[1:])
	ep.recvQ = ep.recvQ[:len(ep.recvQ)-1]
	ep.consume(a, slot)
}

// consume completes a matched arrival: scatter the payload (sends only)
// straight from the sender's segments, then queue the receive-side and
// send-side completions. The send-side completion follows the copy, so a
// parked send keeps its source segments until it is consumed here.
func (ep *endpoint) consume(a arrival, slot recvSlot) {
	capacity := 0
	for _, s := range slot.segs {
		capacity += s.Len
	}
	recvOp := xport.CompRecv
	if a.hasImm {
		recvOp = xport.CompRecvImm
	}
	if !a.hasImm && a.bytes > capacity {
		ep.pv.push(ep, xport.Completion{WRID: slot.wrid, Status: xport.StatusLenErr, Op: recvOp})
		a.src.pv.push(a.src, xport.Completion{WRID: a.op.wrid, Status: xport.StatusLenErr, Op: xport.CompSend})
		return
	}
	if !a.hasImm {
		src, si, so, n := a.op.segs, 0, 0, a.bytes // gather cursor: segment, offset
		for _, s := range slot.segs {
			d := s.Mem.Bytes()[s.Off : s.Off+s.Len]
			for len(d) > 0 && n > 0 {
				c := copy(d, src[si][so:])
				d, so, n = d[c:], so+c, n-c
				if so == len(src[si]) {
					si, so = si+1, 0
				}
			}
			if n == 0 {
				break
			}
		}
	}
	ep.pv.push(ep, xport.Completion{
		WRID: slot.wrid, Status: xport.StatusSuccess, Op: recvOp,
		Bytes: a.bytes, Imm: a.imm, HasImm: a.hasImm,
	})
	if a.op.signaled {
		sendOp := xport.CompSend
		if a.hasImm {
			sendOp = xport.CompWrite
		}
		a.src.pv.push(a.src, xport.Completion{WRID: a.op.wrid, Status: xport.StatusSuccess, Op: sendOp, Bytes: a.bytes})
	}
}

// PostRecv posts a receive WR, immediately consuming a parked arrival if
// one is waiting.
func (ep *endpoint) PostRecv(wr *xport.RecvWR) error {
	if _, err := ep.checkSegs(wr.Segs); err != nil {
		return err
	}
	if len(ep.recvQ) >= ep.maxRecvWR {
		return fmt.Errorf("%w: shm receive queue depth %d", xport.ErrQueueFull, ep.maxRecvWR)
	}
	slot := recvSlot{wrid: wr.WRID, segs: wr.Segs}
	if len(ep.parked) > 0 {
		a := ep.parked[0]
		copy(ep.parked, ep.parked[1:])
		ep.parked = ep.parked[:len(ep.parked)-1]
		ep.consume(a, slot)
		return nil
	}
	ep.recvQ = append(ep.recvQ, slot)
	return nil
}

// Outstanding reports launched-not-completed transfers.
func (ep *endpoint) Outstanding() int { return ep.inflight }

// RecvQueueLen reports posted, unconsumed receive WRs.
func (ep *endpoint) RecvQueueLen() int { return len(ep.recvQ) }

// MaxInline reports the largest inline payload the endpoint accepts.
func (ep *endpoint) MaxInline() int { return ep.maxInline }
