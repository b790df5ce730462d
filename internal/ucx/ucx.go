// Package ucx emulates the middleware layer the paper's baseline rides on:
// Open MPI's persistent partitioned module sends each user partition as an
// ordinary message through UCX, which picks a protocol by size —
// eager/bcopy (copy through a bounce buffer), eager/zcopy (gather directly
// from registered user memory), or rendezvous (an RTS control message
// exposing the sender's memory, an RDMA READ by the receiver straight into
// the landing zone, and a release back to the sender).
//
// The protocol switch points are observable in the paper's Figure 8 as
// speedup spikes ("1 KiB is the threshold where UCX switches from its
// eager/bcopy to its eager/zcopy protocol"); reproducing the protocol
// structure reproduces those artifacts.
//
// The unit of the API is an active message: Send/SendMR deliver (header,
// payload) to the destination transport's handler from its progress
// engine. Connections are established lazily per destination with a
// control-plane handshake, like UCX wireup.
//
// The engine posts its work through the rank's transport
// (internal/xport). Its clients (the baseline strategy in internal/core,
// internal/pt2pt, internal/netgauge) build it with New over a rank.
package ucx

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// The protocol thresholds, costs and resource counts below are fixed
// properties of the modelled middleware.
const (
	// bcopyMax is the largest payload sent through the bounce-copy path
	// (the eager/bcopy threshold the paper observes at 1 KiB).
	bcopyMax = 1 << 10
	// rndvThreshold is the largest eager payload; above it the rendezvous
	// protocol runs.
	rndvThreshold = 32 << 10
	// copyByteTime is the memcpy cost in ns/B for bcopy staging and
	// receive-side copy-out (20 GB/s).
	copyByteTime = 0.05
	// slots is the bounce-slot count per endpoint direction.
	slots = 64
	// rails is the number of endpoints per peer, used round-robin (UCX
	// multi-rail); with the default fabric a single QP cannot saturate the
	// link.
	rails = 2
	// sendOverhead is the per-message CPU cost of the bcopy (small
	// message) send fast path.
	sendOverhead = 120 * time.Nanosecond
	// zcopySendOverhead is the eager zero-copy send path cost (adds
	// registration-cache handling).
	zcopySendOverhead = 600 * time.Nanosecond
	// rndvSendOverhead is the rendezvous initiation cost (request object,
	// RTS build) — the protocol's round trips are modelled separately.
	rndvSendOverhead = 900 * time.Nanosecond
	// amProcess is the receive-side active-message handling cost for
	// bcopy arrivals, on top of the raw completion poll.
	amProcess = 150 * time.Nanosecond
	// zcopyAMProcess is the receive-side handling cost for zcopy-sized
	// arrivals.
	zcopyAMProcess = 500 * time.Nanosecond
	// rndvRecvOverhead is the receiver-side CPU cost of each rendezvous
	// protocol step (RTS handling, and the read's completion), serialized
	// on the receiver like its progress engine — the per-message cost that
	// makes per-partition rendezvous traffic expensive for the baseline.
	rndvRecvOverhead = 2500 * time.Nanosecond
	// creditBatch is how many receive-side deliveries on a rail are
	// returned to the sender in one credit message: half a rail's share
	// of the bounce slots.
	creditBatch = slots / rails / 2
)

const headerBytes = 8

// Control-message kind suffixes; the transport's channel name prefixes
// them (see New).
const (
	kindConnect = ".connect"
	kindAccept  = ".accept"
	kindRTS     = ".rts"
	kindCredit  = ".credit"
	kindRelease = ".rel"
)

// EagerHandler consumes an eager active message. data is only valid
// during the call; the copy-out cost has already been charged to p.
type EagerHandler func(p *sim.Proc, from int, header uint64, data []byte)

// RndvTarget maps an announced rendezvous message to its landing zone in
// local registered memory. Returning ok=false is a protocol error (the
// layer above guarantees placement is known after initialization).
type RndvTarget func(from int, header uint64, size int) (mem xport.Mem, off int, ok bool)

// RndvDone is invoked (from the receiver's control path) when a
// rendezvous payload has fully landed.
type RndvDone func(from int, header uint64, size int)

// Transport is one rank's UCX-like messaging engine: Send/SendMR deliver
// (header, payload) to the destination's handler from its progress
// engine, selecting an eager or rendezvous protocol by size.
type Transport struct {
	host *mpi.Rank
	pv   *xport.Provider

	eager      EagerHandler
	rndvTarget RndvTarget
	rndvDone   RndvDone

	eps map[int]*endpoint

	// Channel-scoped control kinds, concatenated once at construction:
	// protocol sends are per-message hot-path work and must not rebuild
	// the kind string every time.
	kindConnect, kindAccept, kindRTS, kindCredit, kindRelease string

	// protoFreeAt serializes receiver-side rendezvous protocol handling
	// (the progress engine handles one protocol message at a time).
	protoFreeAt sim.Time

	// Stats, exposed for experiments.
	bcopySends int64
	zcopySends int64
	rndvSends  int64
}

// connectMsg is the wireup handshake payload: one endpoint descriptor per
// rail.
type connectMsg struct {
	descs []xport.Desc
}

// rtsMsg announces a rendezvous send; raddr/rkey expose the sender's
// memory for the receiver to read.
type rtsMsg struct {
	header uint64
	size   int
	seq    uint64
	raddr  uint64
	rkey   uint32
}

// releaseMsg tells the sender its rendezvous memory is no longer needed.
type releaseMsg struct {
	seq uint64
}

// creditMsg returns eager-receive credits for one rail (sender-side flow
// control, as UCX's AM protocol does: the remote RQ must never drain even
// if the receiver's progress engine is starved by application compute).
type creditMsg struct {
	rail int
	n    int
}

// endpoint is the per-destination state.
type endpoint struct {
	dst   int
	rails []*xport.Endpoint
	rail  int // round-robin cursor over rails
	ready bool

	// Sender staging ring for bcopy/zcopy headers+payloads. freeSlots is
	// a LIFO stack (slot reuse order is irrelevant), so push/pop never
	// leak capacity off the front of the backing array.
	staging   xport.Mem
	slotSize  int
	freeSlots []int
	// slotOf maps WRID -> staging slot to free on send completion.
	slotOf map[uint64]int
	// sendSegs holds one reusable gather list per staging slot. A slot
	// has at most one send in flight, so per-slot reuse keeps postEager
	// allocation-free without aliasing live WRs.
	sendSegs [][2]xport.Seg

	// Receive bounce ring. recvWRs caches one receive WR per bounce slot:
	// the gather list for a slot never changes and a slot is reposted only
	// after its previous receive completed, so the same WR (with its
	// converted scatter list cached inside) is posted every time without a
	// per-repost allocation.
	bounce  xport.Mem
	recvWRs []xport.RecvWR

	// wrScratch is the reusable send work request: PostSend consumes the
	// WR itself before it returns, so one in-progress post per
	// endpoint never aliases. The memory a WR gathers from is read when it
	// lands, so it stays held until the WR completes: a staging slot
	// returns to freeSlots only in onWC, and Quiescent stays false while a
	// zero-copy or rendezvous send is in flight.
	wrScratch xport.SendWR

	// pending holds sends deferred on wireup, staging or credit
	// exhaustion, or a full send queue.
	pending []pendingSend

	// credits is the sender-side eager flow control per rail: one credit
	// per receive WR known to be posted at the peer.
	credits []int
	// processed counts receive-side deliveries per rail since the last
	// credit return.
	processed []int

	// rndv holds the sequence numbers of the sender's rendezvous sends
	// whose memory the receiver has not yet released.
	rndv    map[uint64]bool
	nextSeq uint64

	// readOps (receiver side) maps RDMA-read WRIDs to the rendezvous they
	// complete.
	readOps map[uint64]readOp

	nextWRID uint64
}

type pendingSend struct {
	header uint64
	mem    xport.Mem
	off    int
	length int
}

// readOp tracks one in-flight rendezvous read on the receiver.
type readOp struct {
	from   int
	header uint64
	size   int
	seq    uint64
}

// New creates the transport over the rank's transport and registers its
// control handlers. The channel namespaces the transport's control
// messages so multiple transports (like multiple UCX workers) can coexist
// on one rank. Create exactly one transport per (rank, channel).
func New(h *mpi.Rank, channel string) *Transport {
	t := &Transport{
		host: h, pv: h.Transport(),
		eps: make(map[int]*endpoint),
	}
	t.kindConnect = channel + kindConnect
	t.kindAccept = channel + kindAccept
	t.kindRTS = channel + kindRTS
	t.kindCredit = channel + kindCredit
	t.kindRelease = channel + kindRelease
	h.HandleCtrl(t.kindConnect, t.onConnect)
	h.HandleCtrl(t.kindAccept, t.onAccept)
	h.HandleCtrl(t.kindRTS, t.onRTS)
	h.HandleCtrl(t.kindCredit, t.onCredit)
	h.HandleCtrl(t.kindRelease, t.onRelease)
	return t
}

// SetEagerHandler installs the eager active-message consumer.
func (t *Transport) SetEagerHandler(h EagerHandler) { t.eager = h }

// SetRndv installs the rendezvous placement and completion callbacks.
func (t *Transport) SetRndv(target RndvTarget, done RndvDone) {
	t.rndvTarget = target
	t.rndvDone = done
}

// Stats returns (bcopy, zcopy, rendezvous) send counts.
func (t *Transport) Stats() (bcopy, zcopy, rndv int64) {
	return t.bcopySends, t.zcopySends, t.rndvSends
}

// Quiescent reports whether the transport has no deferred sends, no
// unacknowledged work requests, and no rendezvous operations in flight —
// UCX flush semantics. Senders typically spin the progress engine on it
// (r.WaitOn(p, t.Quiescent)) before reusing buffers or finalizing.
func (t *Transport) Quiescent() bool {
	for _, ep := range t.eps {
		if len(ep.pending) > 0 || len(ep.rndv) > 0 ||
			len(ep.slotOf) > 0 || len(ep.readOps) > 0 {
			return false
		}
	}
	return true
}

// endpointFor returns (creating if needed) the endpoint to dst, starting
// wireup on first use.
func (t *Transport) endpointFor(dst int) *endpoint {
	if ep, ok := t.eps[dst]; ok {
		return ep
	}
	ep := t.newEndpoint(dst)
	t.eps[dst] = ep
	// Wireup: offer our descriptors; the peer accepts with its own.
	t.host.SendCtrl(dst, t.kindConnect, connectMsg{descs: descsOf(ep.rails)})
	return ep
}

// descsOf collects the wire descriptors of an endpoint's rails.
func descsOf(rails []*xport.Endpoint) []xport.Desc {
	descs := make([]xport.Desc, len(rails))
	for i, r := range rails {
		descs[i] = r.Desc()
	}
	return descs
}

// newEndpoint allocates rail, staging, and bounce resources for one peer.
func (t *Transport) newEndpoint(dst int) *endpoint {
	ep := &endpoint{
		dst:      dst,
		slotOf:   make(map[uint64]int),
		rndv:     make(map[uint64]bool),
		slotSize: headerBytes + rndvThreshold,
	}
	ep.rails = make([]*xport.Endpoint, rails)
	for i := range ep.rails {
		rail, err := t.pv.NewEndpoint(xport.EndpointConfig{
			MaxSendWR:    256,
			MaxRecvWR:    slots + 16,
			OnCompletion: func(p *sim.Proc, c xport.Completion) { t.onWC(p, ep, c) },
		})
		if err != nil {
			panic(fmt.Sprintf("ucx: NewEndpoint: %v", err))
		}
		ep.rails[i] = rail
	}
	staging, err := t.pv.RegMem(make([]byte, slots*ep.slotSize))
	if err != nil {
		panic(fmt.Sprintf("ucx: staging RegMem: %v", err))
	}
	bounce, err := t.pv.RegMem(make([]byte, slots*ep.slotSize))
	if err != nil {
		panic(fmt.Sprintf("ucx: bounce RegMem: %v", err))
	}
	ep.staging, ep.bounce = staging, bounce
	ep.sendSegs = make([][2]xport.Seg, slots)
	ep.recvWRs = make([]xport.RecvWR, slots)
	for i := 0; i < slots; i++ {
		ep.freeSlots = append(ep.freeSlots, i)
		ep.recvWRs[i] = xport.RecvWR{
			WRID: uint64(i),
			Segs: []xport.Seg{{Mem: bounce, Off: i * ep.slotSize, Len: ep.slotSize}},
		}
	}
	ep.credits = make([]int, rails)
	ep.processed = make([]int, rails)
	for i := range ep.credits {
		ep.credits[i] = slots / rails
	}
	return ep
}

// nextRail round-robins rails for operations that need no eager credit
// (rendezvous RDMA reads consume no remote receive WR).
func (ep *endpoint) nextRail() *xport.Endpoint {
	rail := ep.rails[ep.rail%len(ep.rails)]
	ep.rail++
	return rail
}

// takeEagerRail picks the next rail with an available eager credit,
// consuming it. It returns -1 when every rail is out of credit.
func (ep *endpoint) takeEagerRail() int {
	for i := 0; i < len(ep.rails); i++ {
		r := (ep.rail + i) % len(ep.rails)
		if ep.credits[r] > 0 {
			ep.credits[r]--
			ep.rail = r + 1
			return r
		}
	}
	return -1
}

// hasEagerCredit reports whether any rail can accept an eager send.
func (ep *endpoint) hasEagerCredit() bool {
	for _, c := range ep.credits {
		if c > 0 {
			return true
		}
	}
	return false
}

// postBounceRecvs fills the receive queue with bounce-slot WRs. WRIDs
// encode the slot index.
func (t *Transport) postBounceRecvs(ep *endpoint) {
	for i := 0; i < slots; i++ {
		t.repostBounce(ep, i)
	}
}

func (t *Transport) repostBounce(ep *endpoint, slot int) {
	if err := ep.rails[slot%len(ep.rails)].PostRecv(&ep.recvWRs[slot]); err != nil {
		panic(fmt.Sprintf("ucx: PostRecv bounce: %v", err))
	}
}

// onConnect is the passive side of wireup.
func (t *Transport) onConnect(from int, data any) {
	msg := data.(connectMsg)
	ep, existed := t.eps[from]
	if !existed {
		ep = t.newEndpoint(from)
		t.eps[from] = ep
	}
	t.finishWireup(ep, msg.descs)
	t.host.SendCtrl(from, t.kindAccept, connectMsg{descs: descsOf(ep.rails)})
}

// onAccept is the active side's completion of wireup.
func (t *Transport) onAccept(from int, data any) {
	msg := data.(connectMsg)
	ep := t.eps[from]
	if ep == nil {
		panic("ucx: accept without endpoint")
	}
	t.finishWireup(ep, msg.descs)
	t.flushPending(ep)
}

// finishWireup connects the endpoint's rails to the remote rails and
// posts bounce receives.
func (t *Transport) finishWireup(ep *endpoint, remote []xport.Desc) {
	if ep.ready {
		return
	}
	if len(remote) != len(ep.rails) {
		panic(fmt.Sprintf("ucx: rail count mismatch: %d vs %d", len(remote), len(ep.rails)))
	}
	for i, rail := range ep.rails {
		if err := rail.Connect(remote[i]); err != nil {
			panic(fmt.Sprintf("ucx: Connect: %v", err))
		}
	}
	t.postBounceRecvs(ep)
	ep.ready = true
}

// Connected reports whether the endpoint to dst is wired up (for tests).
func (t *Transport) Connected(dst int) bool {
	ep, ok := t.eps[dst]
	return ok && ep.ready
}

// copyCost returns the modelled memcpy time for n bytes.
func (t *Transport) copyCost(n int) time.Duration {
	return time.Duration(float64(n) * copyByteTime)
}

// Send delivers an active message from arbitrary (unregistered) memory; it
// always stages through the bounce-copy path and therefore requires
// len(data) <= the rendezvous threshold. Use SendMR for registered
// payloads of any size.
func (t *Transport) Send(p *sim.Proc, dst int, header uint64, data []byte) error {
	if len(data) > rndvThreshold {
		return fmt.Errorf("%w: ucx: Send of %d B exceeds eager limit %d; use SendMR",
			xport.ErrTooLong, len(data), rndvThreshold)
	}
	ep := t.endpointFor(dst)
	// Stage into a scratch registered buffer via the normal path by
	// treating the staging ring itself as the source: charge the user→
	// staging copy and enqueue.
	t.sendEager(p, ep, header, nil, 0, data, true)
	return nil
}

// SendMR delivers an active message from registered memory, selecting
// bcopy, zcopy, or rendezvous by size exactly as the baseline's middleware
// does.
func (t *Transport) SendMR(p *sim.Proc, dst int, header uint64, mem xport.Mem, off, length int) error {
	if off < 0 || length < 0 || off+length > mem.Len() {
		return fmt.Errorf("%w: ucx: SendMR range [%d,%d) outside MR of %d B",
			xport.ErrMemBounds, off, off+length, mem.Len())
	}
	ep := t.endpointFor(dst)
	switch {
	case length <= bcopyMax:
		t.sendEager(p, ep, header, mem, off, mem.Bytes()[off:off+length], true)
	case length <= rndvThreshold:
		t.sendEager(p, ep, header, mem, off, mem.Bytes()[off:off+length], false)
	default:
		t.sendRndv(p, ep, header, mem, off, length)
	}
	return nil
}

// sendEager stages (bcopy) or gathers (zcopy) an eager message. Staging
// always copies the header; bcopy additionally copies the payload.
func (t *Transport) sendEager(p *sim.Proc, ep *endpoint, header uint64, mem xport.Mem, off int, data []byte, bcopy bool) {
	if bcopy {
		t.bcopySends++
		p.Sleep(sendOverhead + t.copyCost(headerBytes+len(data)))
	} else {
		t.zcopySends++
		p.Sleep(zcopySendOverhead + t.copyCost(headerBytes))
	}

	if !ep.ready || len(ep.freeSlots) == 0 || !ep.hasEagerCredit() {
		// Defer: wireup in flight, staging exhausted, or no eager credit.
		// Deferral keeps the payload source so zcopy stays zero-copy.
		if bcopy {
			// The payload may be mutated after we return; bcopy semantics
			// require capturing it now.
			captured := make([]byte, len(data))
			copy(captured, data)
			ep.pending = append(ep.pending, pendingSend{
				header: header, mem: t.stashPending(captured), length: len(captured),
			})
			return
		}
		ep.pending = append(ep.pending, pendingSend{header: header, mem: mem, off: off, length: len(data)})
		return
	}
	t.postEager(ep, header, mem, off, data, bcopy)
}

// stashPending registers captured bytes as a throwaway region for a
// deferred bcopy send (freed by garbage collection after completion).
func (t *Transport) stashPending(captured []byte) xport.Mem {
	mem, err := t.pv.RegMem(captured)
	if err != nil {
		panic(fmt.Sprintf("ucx: stash RegMem: %v", err))
	}
	return mem
}

// postEager writes the header (and payload for bcopy) into a staging slot
// and posts the send WR.
func (t *Transport) postEager(ep *endpoint, header uint64, mem xport.Mem, off int, data []byte, bcopy bool) {
	last := len(ep.freeSlots) - 1
	slot := ep.freeSlots[last]
	ep.freeSlots = ep.freeSlots[:last]
	base := slot * ep.slotSize
	stage := ep.staging.Bytes()
	binary.BigEndian.PutUint64(stage[base:base+headerBytes], header)

	var segs []xport.Seg
	if bcopy || mem == nil {
		copy(stage[base+headerBytes:base+headerBytes+len(data)], data)
		ep.sendSegs[slot][0] = xport.Seg{Mem: ep.staging, Off: base, Len: headerBytes + len(data)}
		segs = ep.sendSegs[slot][:1]
	} else {
		ep.sendSegs[slot][0] = xport.Seg{Mem: ep.staging, Off: base, Len: headerBytes}
		ep.sendSegs[slot][1] = xport.Seg{Mem: mem, Off: off, Len: len(data)}
		segs = ep.sendSegs[slot][:2]
	}
	rail := ep.takeEagerRail()
	if rail < 0 {
		panic("ucx: postEager without credit")
	}
	ep.nextWRID++
	wrid := ep.nextWRID
	ep.slotOf[wrid] = slot
	ep.wrScratch = xport.SendWR{
		WRID:     wrid,
		Op:       xport.OpSend,
		Segs:     segs,
		Signaled: true,
	}
	if err := ep.rails[rail].PostSend(&ep.wrScratch); err != nil {
		panic(fmt.Sprintf("ucx: PostSend eager: %v", err))
	}
}

// flushPending drains deferred sends once resources free up.
func (t *Transport) flushPending(ep *endpoint) {
	for len(ep.pending) > 0 && ep.ready && len(ep.freeSlots) > 0 && ep.hasEagerCredit() {
		ps := ep.pending[0]
		ep.pending = ep.pending[1:]
		data := ps.mem.Bytes()[ps.off : ps.off+ps.length]
		// Deferred sends re-post without re-charging CPU cost (it was
		// charged at Send time).
		t.postEager(ep, ps.header, ps.mem, ps.off, data, false)
	}
}

// sendRndv starts the rendezvous protocol: an RTS exposing the sender's
// memory, which the receiver reads directly and then releases.
func (t *Transport) sendRndv(p *sim.Proc, ep *endpoint, header uint64, mem xport.Mem, off, length int) {
	t.rndvSends++
	p.Sleep(rndvSendOverhead)
	ep.nextSeq++
	seq := ep.nextSeq
	ep.rndv[seq] = true
	t.host.SendCtrl(ep.dst, t.kindRTS, rtsMsg{
		header: header,
		size:   length,
		seq:    seq,
		raddr:  mem.Addr() + uint64(off),
		rkey:   mem.RKey(),
	})
}

// onRTS (receiver): resolve the landing zone and RDMA-read the sender's
// memory into it after the serialized protocol-processing cost.
func (t *Transport) onRTS(from int, data any) {
	msg := data.(rtsMsg)
	if t.rndvTarget == nil {
		panic("ucx: rendezvous RTS with no target resolver installed")
	}
	mem, off, ok := t.rndvTarget(from, msg.header, msg.size)
	if !ok {
		panic(fmt.Sprintf("ucx: no rendezvous target for header %#x from %d", msg.header, from))
	}
	ep := t.eps[from]
	t.afterProtoCost(func() {
		if ep.readOps == nil {
			ep.readOps = make(map[uint64]readOp)
		}
		ep.nextWRID++
		wrid := ep.nextWRID
		ep.readOps[wrid] = readOp{from: from, header: msg.header, size: msg.size, seq: msg.seq}
		ep.wrScratch = xport.SendWR{
			WRID:       wrid,
			Op:         xport.OpRead,
			Segs:       []xport.Seg{{Mem: mem, Off: off, Len: msg.size}},
			RemoteAddr: msg.raddr,
			RKey:       msg.rkey,
			Signaled:   true,
		}
		if err := ep.nextRail().PostSend(&ep.wrScratch); err != nil {
			panic(fmt.Sprintf("ucx: PostSend rndv read: %v", err))
		}
	})
}

// onRelease (sender): the receiver has pulled the data.
func (t *Transport) onRelease(from int, data any) {
	msg := data.(releaseMsg)
	ep := t.eps[from]
	if ep == nil || !ep.rndv[msg.seq] {
		panic(fmt.Sprintf("ucx: release for unknown rendezvous seq %d", msg.seq))
	}
	delete(ep.rndv, msg.seq)
	t.host.Wake()
}

// afterProtoCost schedules fn after this receiver's next free
// protocol-processing slot, charging RndvRecvOverhead serialized.
func (t *Transport) afterProtoCost(fn func()) {
	e := t.host.Engine()
	start := e.Now()
	if t.protoFreeAt > start {
		start = t.protoFreeAt
	}
	done := start.Add(rndvRecvOverhead)
	t.protoFreeAt = done
	e.At(done, fn)
}

// onCredit restores eager credits returned by the receiver.
func (t *Transport) onCredit(from int, data any) {
	msg := data.(creditMsg)
	ep := t.eps[from]
	if ep == nil {
		panic("ucx: credit for unknown endpoint")
	}
	ep.credits[msg.rail] += msg.n
	t.flushPending(ep)
}

// onWC handles both send-side and receive-side completions for an
// endpoint's rails, invoked from the rank's progress engine.
func (t *Transport) onWC(p *sim.Proc, ep *endpoint, c xport.Completion) {
	if !c.OK() {
		panic(fmt.Sprintf("ucx: completion error on rank %d endpoint %d: %v", t.host.ID(), ep.dst, c.Status))
	}
	switch c.Op {
	case xport.CompRead:
		op, ok := ep.readOps[c.WRID]
		if !ok {
			panic("ucx: read completion for unknown rendezvous")
		}
		delete(ep.readOps, c.WRID)
		p.Sleep(rndvRecvOverhead) //partlint:allow callbackblock virtual-time charge in the cost model, not a park
		t.host.SendCtrl(ep.dst, t.kindRelease, releaseMsg{seq: op.seq})
		if t.rndvDone == nil {
			panic("ucx: rendezvous completion with no handler installed")
		}
		t.rndvDone(op.from, op.header, op.size)
	case xport.CompSend, xport.CompWrite:
		if slot, ok := ep.slotOf[c.WRID]; ok {
			delete(ep.slotOf, c.WRID)
			ep.freeSlots = append(ep.freeSlots, slot)
		}
		t.flushPending(ep)
	case xport.CompRecv:
		slot := int(c.WRID)
		base := slot * ep.slotSize
		buf := ep.bounce.Bytes()[base : base+c.Bytes]
		header := binary.BigEndian.Uint64(buf[:headerBytes])
		payload := buf[headerBytes:]
		// Charge the receive-side active-message handling (tiered by
		// protocol, inferred from the payload size) plus the copy-out of
		// the bounce data.
		am := amProcess
		if len(payload) > bcopyMax {
			am = zcopyAMProcess
		}
		p.Sleep(am + t.copyCost(len(payload))) //partlint:allow callbackblock virtual-time charge in the cost model, not a park
		if t.eager == nil {
			panic("ucx: eager arrival with no handler installed")
		}
		t.eager(p, ep.dst, header, payload)
		t.repostBounce(ep, slot)
		rail := slot % len(ep.rails)
		ep.processed[rail]++
		threshold := slots / rails / 2
		if threshold < 1 {
			threshold = 1
		}
		if ep.processed[rail] >= threshold {
			t.host.SendCtrl(ep.dst, t.kindCredit, creditMsg{rail: rail, n: ep.processed[rail]})
			ep.processed[rail] = 0
		}
	default:
		panic(fmt.Sprintf("ucx: unexpected completion opcode %v", c.Op))
	}
}
