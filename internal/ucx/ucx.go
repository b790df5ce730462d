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
// The unit of the API is an active message: SendMR delivers (header,
// payload) to the destination transport's handler from its progress
// engine. Connections are established lazily per destination with a
// control-plane handshake, like UCX wireup.
//
// The engine posts verbs work requests (internal/ibv) on queue pairs it
// creates through its rank (mpi.Rank.CreateQP). Its clients (the
// baseline strategy in internal/core, and internal/netgauge) build it
// with New over a rank.
package ucx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/ibv"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ErrMemBounds is returned when a SendMR range escapes its region.
var ErrMemBounds = errors.New("ucx: range outside registered region")

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

// Control-message kinds. A rank holds at most one transport: New
// registers these kinds, and mpi.Rank.HandleCtrl panics on a duplicate.
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
type RndvTarget func(from int, header uint64, size int) (mem *ibv.MR, off int, ok bool)

// RndvDone is invoked (from the receiver's control path) when a
// rendezvous payload has fully landed.
type RndvDone func(from int, header uint64, size int)

// Transport is one rank's UCX-like messaging engine: SendMR delivers
// (header, payload) to the destination's handler from its progress
// engine, selecting an eager or rendezvous protocol by size.
type Transport struct {
	host *mpi.Rank

	eager      EagerHandler
	rndvTarget RndvTarget
	rndvDone   RndvDone

	eps map[int]*endpoint

	// protoFreeAt serializes receiver-side rendezvous protocol handling
	// (the progress engine handles one protocol message at a time).
	protoFreeAt sim.Time

	// Send counts per protocol, read through Stats.
	bcopySends int64
	zcopySends int64
	rndvSends  int64
}

// connectMsg is the wireup handshake payload: one queue pair per rail.
// The rails are fixed once created, so the peer reads the sender's slice.
type connectMsg struct {
	qps []*ibv.QP
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
	rails []*ibv.QP
	rail  int // round-robin cursor over rails
	ready bool

	// Sender staging ring for bcopy/zcopy headers+payloads. freeSlots is
	// a LIFO stack (slot reuse order is irrelevant), so push/pop never
	// leak capacity off the front of the backing array.
	staging   *ibv.MR
	slotSize  int
	freeSlots []int
	// slotOf maps WRID -> staging slot to free on send completion.
	slotOf map[uint64]int
	// sgeScratch is the reusable gather list of eager sends: PostSend
	// consumes a send's SGList before it returns, so postEager allocates
	// none. The memory a WR gathers from is read when it lands, so it
	// stays held until the WR completes: a staging slot returns to
	// freeSlots only in onWC, and Quiescent stays false while a zero-copy
	// or rendezvous send is in flight.
	sgeScratch [2]ibv.SGE

	// Receive bounce ring. recvWRs holds one receive WR per bounce slot:
	// the scatter list for a slot never changes, so the same WR is
	// reposted every time without a per-repost allocation.
	bounce  *ibv.MR
	recvWRs []ibv.RecvWR

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
	mem    *ibv.MR
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

// New creates the transport over the rank's device context and registers
// its control handlers. Create at most one transport per rank.
func New(h *mpi.Rank) *Transport {
	t := &Transport{
		host: h,
		eps:  make(map[int]*endpoint),
	}
	h.HandleCtrl(kindConnect, t.onConnect)
	h.HandleCtrl(kindAccept, t.onAccept)
	h.HandleCtrl(kindRTS, t.onRTS)
	h.HandleCtrl(kindCredit, t.onCredit)
	h.HandleCtrl(kindRelease, t.onRelease)
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
	// Wireup: offer our rails; the peer accepts with its own.
	t.host.SendCtrl(dst, kindConnect, connectMsg{qps: ep.rails})
	return ep
}

// newEndpoint allocates rail, staging, and bounce resources for one peer.
func (t *Transport) newEndpoint(dst int) *endpoint {
	ep := &endpoint{
		dst:      dst,
		slotOf:   make(map[uint64]int),
		rndv:     make(map[uint64]bool),
		slotSize: headerBytes + rndvThreshold,
	}
	ep.rails = make([]*ibv.QP, rails)
	for i := range ep.rails {
		rail, err := t.host.CreateQP(ibv.QPConfig{MaxSendWR: 256, MaxRecvWR: slots + 16},
			func(p *sim.Proc, wc ibv.WC) { t.onWC(p, ep, wc) })
		if err != nil {
			panic(fmt.Sprintf("ucx: CreateQP: %v", err))
		}
		ep.rails[i] = rail
	}
	staging, err := t.host.PD().RegMR(make([]byte, slots*ep.slotSize))
	if err != nil {
		panic(fmt.Sprintf("ucx: staging RegMR: %v", err))
	}
	bounce, err := t.host.PD().RegMR(make([]byte, slots*ep.slotSize))
	if err != nil {
		panic(fmt.Sprintf("ucx: bounce RegMR: %v", err))
	}
	ep.staging, ep.bounce = staging, bounce
	ep.recvWRs = make([]ibv.RecvWR, slots)
	for i := 0; i < slots; i++ {
		ep.freeSlots = append(ep.freeSlots, i)
		ep.recvWRs[i] = ibv.RecvWR{
			WRID:   uint64(i),
			SGList: []ibv.SGE{bounce.SGEFor(i*ep.slotSize, ep.slotSize)},
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
func (ep *endpoint) nextRail() *ibv.QP {
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
	if err := ep.rails[slot%len(ep.rails)].PostRecv(ep.recvWRs[slot]); err != nil {
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
	t.finishWireup(ep, msg.qps)
	t.host.SendCtrl(from, kindAccept, connectMsg{qps: ep.rails})
}

// onAccept is the active side's completion of wireup.
func (t *Transport) onAccept(from int, data any) {
	msg := data.(connectMsg)
	ep := t.eps[from]
	if ep == nil {
		panic("ucx: accept without endpoint")
	}
	t.finishWireup(ep, msg.qps)
	t.flushPending(ep)
}

// finishWireup connects the endpoint's rails to the remote rails and
// posts bounce receives.
func (t *Transport) finishWireup(ep *endpoint, remote []*ibv.QP) {
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

// SendMR delivers an active message from registered memory, selecting
// bcopy, zcopy, or rendezvous by size exactly as the baseline's middleware
// does.
func (t *Transport) SendMR(p *sim.Proc, dst int, header uint64, mem *ibv.MR, off, length int) error {
	if off < 0 || length < 0 || off+length > mem.Len() {
		return fmt.Errorf("%w: SendMR range [%d,%d) outside MR of %d B",
			ErrMemBounds, off, off+length, mem.Len())
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
func (t *Transport) sendEager(p *sim.Proc, ep *endpoint, header uint64, mem *ibv.MR, off int, data []byte, bcopy bool) {
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
func (t *Transport) stashPending(captured []byte) *ibv.MR {
	mem, err := t.host.PD().RegMR(captured)
	if err != nil {
		panic(fmt.Sprintf("ucx: stash RegMR: %v", err))
	}
	return mem
}

// postEager writes the header (and payload for bcopy) into a staging slot
// and posts the send WR.
func (t *Transport) postEager(ep *endpoint, header uint64, mem *ibv.MR, off int, data []byte, bcopy bool) {
	last := len(ep.freeSlots) - 1
	slot := ep.freeSlots[last]
	ep.freeSlots = ep.freeSlots[:last]
	base := slot * ep.slotSize
	stage := ep.staging.Bytes()
	binary.BigEndian.PutUint64(stage[base:base+headerBytes], header)

	var sges []ibv.SGE
	if bcopy {
		copy(stage[base+headerBytes:base+headerBytes+len(data)], data)
		ep.sgeScratch[0] = ep.staging.SGEFor(base, headerBytes+len(data))
		sges = ep.sgeScratch[:1]
	} else {
		ep.sgeScratch[0] = ep.staging.SGEFor(base, headerBytes)
		ep.sgeScratch[1] = mem.SGEFor(off, len(data))
		sges = ep.sgeScratch[:2]
	}
	rail := ep.takeEagerRail()
	if rail < 0 {
		panic("ucx: postEager without credit")
	}
	ep.nextWRID++
	wrid := ep.nextWRID
	ep.slotOf[wrid] = slot
	wr := ibv.SendWR{WRID: wrid, Opcode: ibv.OpSend, SGList: sges, Signaled: true}
	if err := ep.rails[rail].PostSend(wr); err != nil {
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
		// charged at SendMR time).
		t.postEager(ep, ps.header, ps.mem, ps.off, data, false)
	}
}

// sendRndv starts the rendezvous protocol: an RTS exposing the sender's
// memory, which the receiver reads directly and then releases.
func (t *Transport) sendRndv(p *sim.Proc, ep *endpoint, header uint64, mem *ibv.MR, off, length int) {
	t.rndvSends++
	p.Sleep(rndvSendOverhead)
	ep.nextSeq++
	seq := ep.nextSeq
	ep.rndv[seq] = true
	t.host.SendCtrl(ep.dst, kindRTS, rtsMsg{
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
		// A read keeps its scatter list until the response lands, so each
		// gets its own.
		wr := ibv.SendWR{
			WRID:       wrid,
			Opcode:     ibv.OpRDMARead,
			SGList:     []ibv.SGE{mem.SGEFor(off, msg.size)},
			RemoteAddr: msg.raddr,
			RKey:       msg.rkey,
			Signaled:   true,
		}
		if err := ep.nextRail().PostSend(wr); err != nil {
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
func (t *Transport) onWC(p *sim.Proc, ep *endpoint, wc ibv.WC) {
	if wc.Status != ibv.StatusSuccess {
		panic(fmt.Sprintf("ucx: completion error on rank %d endpoint %d: %v", t.host.ID(), ep.dst, wc.Status))
	}
	switch wc.Opcode {
	case ibv.WCRDMARead:
		op, ok := ep.readOps[wc.WRID]
		if !ok {
			panic("ucx: read completion for unknown rendezvous")
		}
		delete(ep.readOps, wc.WRID)
		p.Sleep(rndvRecvOverhead)
		t.host.SendCtrl(ep.dst, kindRelease, releaseMsg{seq: op.seq})
		if t.rndvDone == nil {
			panic("ucx: rendezvous completion with no handler installed")
		}
		t.rndvDone(op.from, op.header, op.size)
	case ibv.WCSend, ibv.WCRDMAWrite:
		if slot, ok := ep.slotOf[wc.WRID]; ok {
			delete(ep.slotOf, wc.WRID)
			ep.freeSlots = append(ep.freeSlots, slot)
		}
		t.flushPending(ep)
	case ibv.WCRecv:
		slot := int(wc.WRID)
		base := slot * ep.slotSize
		buf := ep.bounce.Bytes()[base : base+wc.ByteLen]
		header := binary.BigEndian.Uint64(buf[:headerBytes])
		payload := buf[headerBytes:]
		// Charge the receive-side active-message handling (tiered by
		// protocol, inferred from the payload size) plus the copy-out of
		// the bounce data.
		am := amProcess
		if len(payload) > bcopyMax {
			am = zcopyAMProcess
		}
		p.Sleep(am + t.copyCost(len(payload)))
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
			t.host.SendCtrl(ep.dst, kindCredit, creditMsg{rail: rail, n: ep.processed[rail]})
			ep.processed[rail] = 0
		}
	default:
		panic(fmt.Sprintf("ucx: unexpected completion opcode %v", wc.Opcode))
	}
}
