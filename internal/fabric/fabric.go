// Package fabric simulates the interconnect the software verbs device
// (internal/ibv) transmits on: an EDR-InfiniBand-like network whose costs
// follow the LogGP decomposition the paper models with. The cost model is
// one fixed parameter set, the package constants below; the topology
// (Config.Topo) is the only machine input.
//
// Each HCA owns a Port. A Flow is a unidirectional, reliable, ordered
// message pipeline between two ports — the fabric-level realization of one
// queue pair's send direction. Messages are charged:
//
//   - WRProcess per work request (doorbell + WQE fetch at the NIC),
//   - MsgGap between consecutive messages of the same flow (LogGP g),
//   - per-byte injection pacing PerQPByteTime on the flow (a single QP
//     cannot saturate the link, which is why the paper's Figure 7 finds
//     more QPs help large transfers),
//   - per-byte serialization LinkByteTime on the source port's shared
//     egress cursor (LogGP G), with per-MTU-packet header bytes, and
//   - WireLatency (LogGP L) on the wire, plus AckLatency for the sender's
//     completion.
//
// Link arbitration happens at burst granularity (BurstBytes, 64 KiB): a
// flow reserves the link for at most one burst at a time, so concurrent
// flows interleave within a few microseconds like packets on a real
// switch, without simulating every 4 KiB packet as its own event.
//
// After injection every burst follows its flow's route: a list of link
// cursors, each charged store-and-forward in canonical order (see
// fireLinkFlush). On a flat topology the route is one hop onto the
// destination port's own cursor with zero latency and zero byte time, so
// it only orders arrivals; graph topologies (topology.go) add per-link
// serialization and latency.
//
// The fabric also provides a Control plane: small, reliable, ordered
// rank-to-rank messages used by the MPI runtime for queue-pair and rkey
// exchange, mirroring the paper's asynchronous connection setup inside
// MPI_Psend_init/MPI_Precv_init.
package fabric

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/loggp"
	"repro/internal/sim"
)

// The cost model: an EDR-InfiniBand-like parameterization with a ~11.7 GB/s
// link, ~7.1 GB/s per QP, 4 KiB MTU and 1 µs wire latency. Per-WR
// processing and inter-message gaps are tens of nanoseconds, matching the
// ~200 M msg/s message rate of the ConnectX-5 generation — the hardware is
// cheap per work request; it is the *software* per-message cost (modelled
// in the MPI and UCX layers) that aggregation saves.
const (
	// MTU is the maximum transmission unit in bytes.
	MTU = 4096
	// BurstBytes is the link-arbitration granularity.
	BurstBytes = 65536
	// PacketHeader is the per-MTU-packet header overhead in bytes.
	PacketHeader = 64
	// WireLatency is the one-way propagation latency (LogGP L).
	WireLatency = 1000 * time.Nanosecond
	// AckLatency is the extra time until the sender's completion after
	// the last byte arrives (hardware ack on a reliable connection).
	AckLatency = 1000 * time.Nanosecond
	// CtrlLatency is the control-plane one-way latency.
	CtrlLatency = 1500 * time.Nanosecond
	// LinkByteTime is the shared-link per-byte cost in ns/B (LogGP G).
	LinkByteTime float64 = 0.085
	// PerQPByteTime is the per-flow injection pacing in ns/B. It exceeds
	// LinkByteTime: a single QP cannot saturate the link.
	PerQPByteTime float64 = 0.140
	// WRProcess is the per-work-request NIC processing cost (WQE fetch
	// over PCIe after the doorbell).
	WRProcess = 25 * time.Nanosecond
	// MsgGap is the minimum spacing between messages of one flow (LogGP g).
	MsgGap = 10 * time.Nanosecond

	// LinkBandwidth is the shared-link bandwidth in bytes per second.
	LinkBandwidth = 1e9 / LinkByteTime

	// lookaheadFloor is the smallest cross-port interaction latency of the
	// cost model: the minimum of the wire, ack, and control latencies.
	lookaheadFloor = min(WireLatency, AckLatency, CtrlLatency)
)

// Config selects the interconnect topology the cost model runs on.
type Config struct {
	// Topo selects the interconnect topology. nil means the single
	// shared link the fabric always modelled. Flat topologies only
	// reshape pair latencies; graph topologies (fat-tree, dragonfly) add
	// per-link serialization cursors so routed flows genuinely contend.
	// See topology.go.
	Topo *Topology
}

// Validate reports configuration errors.
func (c Config) Validate() error { return c.Topo.validate() }

// Lookahead returns the smallest cross-port interaction latency: the
// minimum of the wire, ack, and control latencies. Every port-to-port
// effect in this package (burst arrival, completion, control delivery) is
// separated from its cause by at least this much virtual time, so it is a
// sound conservative-PDES lookahead bound for sharding the simulation
// along port boundaries (sim.ShardSet). With a multi-hop topology it
// additionally includes the smallest link latency, since routed bursts
// also hop between link cursors; with a flat topology it is unchanged from
// the single-link model (the one hop onto the destination's own cursor
// runs on the destination's engine). PairLookahead gives the wider
// per-pair bound.
func (c Config) Lookahead() time.Duration { return c.Topo.lookahead() }

// Topology resolves the configured topology: Topo when set, the single
// shared link otherwise.
func (c Config) Topology() *Topology {
	if c.Topo == nil {
		return SingleLink()
	}
	return c.Topo
}

// PairLookahead returns the smallest interaction latency between two
// specific ports: the global floor plus the pair's topology extra (the
// inter-rack extra of a two-level topology, shortest-path link latencies
// in a graph topology). Every effect the fabric schedules from port a onto
// port b's engine is at least this far in the future, so it is a sound
// per-pair conservative-PDES lookahead (see sim.NewShardSet).
func (c Config) PairLookahead(a, b int) time.Duration {
	return c.Lookahead() + c.Topology().PairExtra(a, b)
}

// Fabric is a simulated interconnect instance. Its ports may live on
// different engines of one sim.ShardSet (see NewPortOn): all port-to-port
// interactions cross engines only through sim.Engine.Post with timestamps
// at least Config.Lookahead in the future, which is exactly the
// conservative-lookahead contract the shard runtime requires.
type Fabric struct {
	eng   *sim.Engine
	topo  *Topology
	ports []*Port

	// links are the graph topology's serialization cursors and stats
	// their per-link statistics (both empty for flat topologies).
	// ownerLinks maps a host ID to the links whose cursor its engine
	// owns, so NewPortOn can bind engines; unbound links (hosts beyond
	// the port count) stay on the fabric's engine.
	links      []linkState
	stats      []LinkStats
	ownerLinks map[int][]int
}

// New creates a fabric on the engine. It panics on invalid configuration
// (a construction-time programming error).
func New(e *sim.Engine, cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Fabric{eng: e, topo: cfg.Topology()}
	if t := f.topo; !t.Flat() {
		f.links = make([]linkState, t.Links())
		f.stats = make([]LinkStats, t.Links())
		f.ownerLinks = make(map[int][]int)
		for i := range f.links {
			link := t.LinkAt(i)
			bt := link.ByteTime
			if bt == 0 {
				bt = LinkByteTime
			}
			f.stats[i].Link = link
			f.links[i] = linkState{eng: e, lat: link.Latency, byteTime: bt, stats: &f.stats[i]}
			f.ownerLinks[link.OwnerHost] = append(f.ownerLinks[link.OwnerHost], i)
		}
	}
	return f
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Topology returns the resolved topology the fabric was built with.
func (f *Fabric) Topology() *Topology { return f.topo }

// Port is one network endpoint (one HCA's link). Each port is owned by
// one engine (its shard): egress state is touched only by flows sending
// from the port (which run on its engine), ingress and control state only
// by reservation events delivered to its engine.
type Port struct {
	fab  *Fabric
	eng  *sim.Engine
	id   int
	name string

	egressFreeAt sim.Time

	// ingress is the port's arrival cursor, the one hop of every flat
	// flow into the port (ingressRoute is that shared one-hop route). It
	// has zero latency and byte time and no stats: it only puts arrivals
	// in canonical order. Owned by this port's engine.
	ingress      linkState
	ingressRoute [1]*linkState

	ctrlHandler func(from *Port, m Control)
	// ctrlLastAt enforces FIFO control delivery per destination port, and
	// ctrlPending lists the control messages arriving at the current
	// instant, in delivery order, until fireCtrlFlush delivers them;
	// ctrlTail is the list's last record. All are advanced by arrival-side
	// events, so they are owned by the destination engine.
	ctrlLastAt  sim.Time
	ctrlPending *ctrlDelivery
	ctrlTail    *ctrlDelivery
	// ctrlFree recycles this port's outbound control records, one per
	// message from SendControl to the handler. Records are allocated by
	// the sending port. A delivered record goes back to the sender's list
	// when both ports share an engine, so even one-way traffic stops
	// allocating; across shards each side may touch only its own list, so
	// the receiver keeps it, up to one record per
	// port of the fabric: enough for a fan-out to every peer (a barrier
	// release), while one-way traffic cannot grow the list without bound.
	ctrlFree []*ctrlDelivery

	// Statistics. Sent counters are written on the sending engine,
	// received counters on this port's engine.
	bytesSent     int64
	bytesReceived int64
	msgsSent      int64
}

// NewPort adds an endpoint to the fabric, owned by the fabric's engine.
func (f *Fabric) NewPort(name string) *Port {
	return f.NewPortOn(f.eng, name)
}

// NewPortOn adds an endpoint owned by engine e — the shard on which all
// of the port's arrival-side events run. e must be the fabric's engine or
// a shard of the same ShardSet. With a graph topology the port's ID must
// fit the topology's host count, and the link cursors the host owns
// (its down link, plus any switch links assigned to it) are bound to e.
// Ports are created before the simulation runs (or on a single engine),
// so the binding is race-free.
func (f *Fabric) NewPortOn(e *sim.Engine, name string) *Port {
	p := &Port{fab: f, eng: e, id: len(f.ports), name: name}
	p.ingress.eng = e
	p.ingressRoute[0] = &p.ingress
	if h := f.topo.Hosts(); h > 0 && p.id >= h {
		panic(fmt.Sprintf("fabric: port %d exceeds topology %q host capacity %d", p.id, f.topo.Name(), h))
	}
	for _, li := range f.ownerLinks[p.id] {
		f.links[li].eng = e
	}
	f.ports = append(f.ports, p)
	return p
}

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// ID returns the port's fabric-wide index (creation order). Ports are
// created in node order, so the ID doubles as the host's topology
// coordinate (the rack TwoLevel groups it into, its host in a graph).
func (p *Port) ID() int { return p.id }

// Engine returns the engine (shard) that owns the port.
func (p *Port) Engine() *sim.Engine { return p.eng }

// Fabric returns the fabric this port is attached to.
func (p *Port) Fabric() *Fabric { return p.fab }

// BytesSent returns the cumulative payload bytes injected by this port.
func (p *Port) BytesSent() int64 { return p.bytesSent }

// BytesReceived returns the cumulative payload bytes delivered to this port.
func (p *Port) BytesReceived() int64 { return p.bytesReceived }

// MessagesSent returns the number of messages injected by this port.
func (p *Port) MessagesSent() int64 { return p.msgsSent }

// SetControlHandler installs the callback for control-plane messages
// addressed to this port.
func (p *Port) SetControlHandler(h func(from *Port, m Control)) {
	p.ctrlHandler = h
}

// Control is one control-plane message. The fabric delivers it per port
// and reads none of it: Kind, From and To are the sender's addressing
// above the port (the MPI runtime's handler kind and its source and
// destination ranks, several of which may share a node's port), and Data
// is the payload.
type Control struct {
	Kind     string
	From, To int32
	Data     any
}

// ctrlDelivery is one in-flight control-plane message, pre-bound to its
// arrival event so SendControl schedules without a closure. It is the
// message's only record from SendControl to the handler. next links the
// destination's same-instant arrivals (Port.ctrlPending).
type ctrlDelivery struct {
	src, dst *Port
	next     *ctrlDelivery
	msg      Control
}

// fireCtrlArrive runs on the destination engine when a control message
// arrives (one control latency — plus the pair's inter-rack extra — after
// the send). Messages arriving at one port at the same instant can fire in
// any order: which fires first follows the engine's event order, which
// differs between a serial run and a sharded one. So an arrival only joins
// the port's pending list, in canonical order — by source port, then
// per-sender FIFO — and the first one of an instant schedules
// fireCtrlFlush at that same instant. Every arrival was posted at least
// one control latency earlier, so the whole instant's list is built before
// the flush fires. Arrivals from one sender are its sends shifted by a
// per-pair constant, so they fire in send order and FIFO holds.
//
// Same-instant arrivals mostly fire in ascending source order (a fan-in
// sent in rank order), so an arrival whose source is no lower than the
// tail's appends in O(1); that is where the walk from the head would
// stop too, so the list is the same either way. A record arrives with
// next nil: SendControl takes it new or cleared by fireCtrlDeliver.
func fireCtrlArrive(at sim.Time, arg any) {
	cd := arg.(*ctrlDelivery)
	dst := cd.dst
	if dst.ctrlPending == nil {
		dst.eng.AtCall(at, fireCtrlFlush, dst)
		dst.ctrlPending, dst.ctrlTail = cd, cd
		return
	}
	if dst.ctrlTail.src.id <= cd.src.id {
		dst.ctrlTail.next, dst.ctrlTail = cd, cd
		return
	}
	link := &dst.ctrlPending
	for (*link).src.id <= cd.src.id {
		link = &(*link).next
	}
	cd.next, *link = *link, cd
}

// fireCtrlFlush delivers one instant's control arrivals at a port in list
// order and applies the destination's FIFO serialization: the first is
// delivered at the arrival instant unless an earlier delivery already took
// it, and each later one one nanosecond behind its predecessor. Delivery
// timestamps therefore depend only on arrival timestamps and source ports,
// never on event order.
func fireCtrlFlush(at sim.Time, arg any) {
	dst := arg.(*Port)
	cd := dst.ctrlPending
	dst.ctrlPending, dst.ctrlTail = nil, nil
	if at > dst.ctrlLastAt {
		dst.ctrlLastAt = at
		next := cd.next
		fireCtrlDeliver(at, cd)
		cd = next
	}
	for ; cd != nil; cd = cd.next {
		dst.ctrlLastAt++
		dst.eng.AtCall(dst.ctrlLastAt, fireCtrlDeliver, cd)
	}
}

// fireCtrlDeliver hands an arrived control message to the destination
// handler and recycles the delivery record (see Port.ctrlFree); a record
// the receiver has no room for is left to the collector.
func fireCtrlDeliver(_ sim.Time, arg any) {
	cd := arg.(*ctrlDelivery)
	src, dst, msg := cd.src, cd.dst, cd.msg
	// Recycle before invoking the handler: handlers may send further
	// control messages and can then reuse this record.
	*cd = ctrlDelivery{}
	if src.eng == dst.eng {
		src.ctrlFree = append(src.ctrlFree, cd)
	} else if len(dst.ctrlFree) < len(dst.fab.ports) {
		dst.ctrlFree = append(dst.ctrlFree, cd)
	}
	if dst.ctrlHandler == nil {
		panic(fmt.Sprintf("fabric: control message to %q with no handler", dst.name))
	}
	dst.ctrlHandler(src, msg)
}

// SendControl delivers m to dst's control handler after the control-plane
// latency. Deliveries to a given destination are serialized
// like a management network's: in arrival order, with same-instant
// arrivals ordered by source port and then per-sender FIFO (see
// fireCtrlFlush). Must be called on the sending port's engine.
func (p *Port) SendControl(dst *Port, m Control) {
	e := p.eng
	var cd *ctrlDelivery
	if n := len(p.ctrlFree); n > 0 {
		cd = p.ctrlFree[n-1]
		p.ctrlFree = p.ctrlFree[:n-1]
	} else {
		cd = new(ctrlDelivery)
	}
	cd.src, cd.dst, cd.msg = p, dst, m
	lat := CtrlLatency + p.fab.topo.PairExtra(p.id, dst.id)
	e.Post(dst.eng, e.Now().Add(lat), fireCtrlArrive, cd)
}

// Message is one fabric-level transfer (the realization of one work
// request). OnDeliver runs at the virtual instant the last byte is placed
// at the destination; OnAck runs when the sender's hardware completion
// would be generated.
type Message struct {
	Bytes     int
	OnDeliver func(at sim.Time)
	OnAck     func(at sim.Time)
}

// Flow is a unidirectional reliable ordered message pipeline between two
// ports (one QP's send direction). Messages injected on one flow are
// processed strictly in order; distinct flows contend for the shared link
// at burst granularity.
//
// A flow's injection pipeline (Send, step, finish, ack, release) runs on
// the source port's engine; each burst then hops along the flow's route,
// and delivery runs on the engine of the route's last cursor, which is the
// destination port's (see step and charge).
type Flow struct {
	fab *Fabric
	eng *sim.Engine // == src.eng: the injection-side shard
	src *Port
	dst *Port

	// queue[head:] are the messages not yet fully injected. Dequeuing
	// advances head; when the queue drains, both reset so the backing
	// array is reused instead of reallocated.
	queue []*flowMsg
	head  int
	// free recycles flowMsg structs: a message returns to the list once
	// its delivery (and ack, if requested) events have fired, so
	// steady-state Send allocates nothing after warm-up.
	free   []*flowMsg
	active bool

	// paceFreeAt is when the flow may inject its next burst (per-QP rate).
	paceFreeAt sim.Time
	// msgFreeAt is when the flow may begin processing its next WR.
	msgFreeAt sim.Time

	// Pair latencies, precomputed at NewFlow so the per-burst hot path
	// does no topology arithmetic: the forward wire latency src→dst, the
	// return ack latency dst→src, and the return release gap (the pair
	// lookahead), each including the topology's pair extra (inter-rack,
	// or route latency) when the endpoints are not adjacent. On a routed
	// flow wireLat covers only host injection (the per-link latencies
	// are charged hop by hop), while ackLat/relLat still span the whole
	// return path.
	wireLat time.Duration
	ackLat  time.Duration
	relLat  time.Duration

	// route is the cursor path every burst follows, fixed at creation:
	// the hash-selected links of a graph topology, or the destination
	// port's one-hop ingress route on a flat one. flowID is the
	// caller-chosen identity that seeded the path hash and breaks
	// canonical-order ties between flows sharing a (src, dst) pair.
	// hopFree is the free list of hop records, linked through
	// hopResv.next; it is touched only on the source engine (take in
	// step, return in release).
	route   []*linkState
	flowID  uint64
	hopFree *hopResv
}

// flowMsg is the in-flight state of one message. It doubles as the
// pre-bound argument of the flow's step/deliver/ack/release events, so the
// whole lifetime of a message schedules no closures. It is recycled only
// on the source engine, at least one pair lookahead after its final burst
// crossed the last hop.
type flowMsg struct {
	fl          *Flow
	msg         Message
	remaining   int
	lastArrival sim.Time
	ackAt       sim.Time
	// hops chains the hop records of the message's bursts, newest first.
	// step links each record on the source engine; release returns the
	// chain to the flow's free list. By then every burst has crossed its
	// last hop, because a flow's bursts stay FIFO on every cursor and the
	// ack or release is scheduled by the final burst's last charge.
	hops *hopResv
}

// Typed-event trampolines for the flow pipeline (see sim.AtCall).
func fireFlowStep(_ sim.Time, arg any) { arg.(*Flow).step() }

func fireFlowDeliver(_ sim.Time, arg any) { arg.(*flowMsg).deliver() }

func fireFlowAck(_ sim.Time, arg any) { arg.(*flowMsg).ack() }

func fireFlowRelease(_ sim.Time, arg any) { fm := arg.(*flowMsg); fm.fl.release(fm) }

// NewFlow creates a flow from src to dst with flow identity 0. Loopback
// (src == dst) is allowed. On graph topologies, callers multiplexing
// several flows over one (src, dst) pair should use NewFlowID with
// distinct identities so the flows hash onto distinct equal-cost paths
// and order deterministically.
func (f *Fabric) NewFlow(src, dst *Port) *Flow {
	return f.NewFlowID(src, dst, 0)
}

// NewFlowID creates a flow from src to dst with an explicit flow
// identity. The identity seeds the deterministic ECMP path hash on graph
// topologies — distinct identities between one host pair spread across
// the equal-cost paths the way distinct QPs multipath on a real fabric —
// and breaks canonical arbitration ties between flows sharing a (src,
// dst) pair. It must be unique per (src, dst, direction) for the
// arbitration order to be total; the verbs layer derives it from the
// queue-pair number. Must be called before the simulation runs or on the
// source port's engine. A flow's route, timing and arbitration depend only
// on its ports and identity, not on when it was built, so the verbs layer
// builds its flows at first use: a send flow on the requester's engine at
// its first post, a READ response flow on the responder's engine when the
// first request lands.
func (f *Fabric) NewFlowID(src, dst *Port, flowID uint64) *Flow {
	if src == nil || dst == nil {
		panic("fabric: NewFlow with nil port")
	}
	if src.fab != f || dst.fab != f {
		panic("fabric: NewFlow ports belong to a different fabric")
	}
	extra := f.topo.PairExtra(src.id, dst.id)
	fl := &Flow{
		fab: f, eng: src.eng, src: src, dst: dst, flowID: flowID,
		wireLat: WireLatency + extra,
		ackLat:  AckLatency + extra,
		relLat:  f.topo.lookahead() + extra,
	}
	ids := f.topo.Route(src.id, dst.id, flowID)
	if ids == nil {
		// Flat topology: the pair extra stays in the injection latency
		// and the route is the destination's zero-cost ingress hop.
		fl.route = dst.ingressRoute[:]
		return fl
	}
	fl.route = make([]*linkState, len(ids))
	for i, id := range ids {
		fl.route[i] = &f.links[id]
	}
	// Hop latencies are charged per link; injection pays only the host's
	// wire latency.
	fl.wireLat = WireLatency
	return fl
}

// Queued returns the number of messages not yet fully injected.
func (fl *Flow) Queued() int { return len(fl.queue) - fl.head }

// Send enqueues a message on the flow. Zero-byte messages still traverse
// the wire (headers move). Negative sizes panic.
func (fl *Flow) Send(m Message) {
	if m.Bytes < 0 {
		panic("fabric: negative message size")
	}
	fl.src.msgsSent++
	fl.src.bytesSent += int64(m.Bytes)
	var fm *flowMsg
	if n := len(fl.free); n > 0 {
		fm = fl.free[n-1]
		fl.free[n-1] = nil
		fl.free = fl.free[:n-1]
	} else {
		fm = &flowMsg{fl: fl}
	}
	fm.msg, fm.remaining, fm.lastArrival = m, m.Bytes, 0
	fl.queue = append(fl.queue, fm)
	if !fl.active {
		fl.active = true
		fl.startHead()
	}
}

// release returns a flowMsg whose events have all fired, and its chain of
// spent hop records, to the flow's free lists, dropping callback
// references so captured state can be collected.
func (fl *Flow) release(fm *flowMsg) {
	tail := fm.hops
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = fl.hopFree
	fl.hopFree = fm.hops
	fm.hops = nil
	fm.msg = Message{}
	fl.free = append(fl.free, fm)
}

// startHead begins WR processing for the message at the head of the queue.
func (fl *Flow) startHead() {
	e := fl.eng
	start := e.Now()
	if fl.msgFreeAt > start {
		start = fl.msgFreeAt
	}
	injectAt := start.Add(WRProcess)
	if fl.paceFreeAt > injectAt {
		injectAt = fl.paceFreeAt
	}
	e.AtCall(injectAt, fireFlowStep, fl)
}

// step injects one burst of the head message, then schedules the next
// action. It runs as an event on the source engine. No cursor past the
// egress is touched here: the burst's hop record is posted one wire
// latency ahead to the first cursor of the route, whose flush charges it
// in canonical order (see fireLinkResv). That order is a pure function of
// the traffic, so arrival timestamps are bit-for-bit identical across
// serial and sharded runs and across worker counts.
func (fl *Flow) step() {
	e := fl.eng
	fm := fl.queue[fl.head]

	// Zero-byte messages occupy the link for their header only.
	burst := min(fm.remaining, BurstBytes)
	packets := loggp.Packets(burst, MTU)
	wireBytes := burst + packets*PacketHeader

	// Grab the shared egress link (FIFO cursor).
	grant := e.Now()
	if fl.src.egressFreeAt > grant {
		grant = fl.src.egressFreeAt
	}
	tx := time.Duration(float64(wireBytes) * LinkByteTime)
	egressEnd := grant.Add(tx)
	fl.src.egressFreeAt = egressEnd

	// Per-flow pacing for the next burst.
	pace := time.Duration(float64(burst) * PerQPByteTime)
	fl.paceFreeAt = grant.Add(pace)
	if fl.paceFreeAt < egressEnd {
		fl.paceFreeAt = egressEnd
	}

	fm.remaining -= burst
	// The hop record snapshots everything the downstream flushes need, so
	// later bursts of the message never rewrite state a cursor still reads.
	hr := fl.takeHop()
	hr.arrive = egressEnd.Add(fl.wireLat)
	hr.wireBytes = int32(wireBytes)
	hr.hop = 0
	hr.final = fm.remaining == 0
	hr.fm = fm
	hr.next = fm.hops
	fm.hops = hr
	e.Post(fl.route[0].eng, e.Now().Add(fl.wireLat), fireLinkResv, hr)

	if fm.remaining > 0 {
		e.AtCall(fl.paceFreeAt, fireFlowStep, fl)
		return
	}

	// Message fully injected: close out the sender side and move on.
	fl.finish(egressEnd)
}

// finish closes out the sender side of a fully injected message and
// advances to the next queued one. Delivery and completion are scheduled
// by the final burst's last hop; the flowMsg returns to the free list once
// the last source-side event referencing it (ack or release) has fired.
func (fl *Flow) finish(egressEnd sim.Time) {
	fl.msgFreeAt = egressEnd.Add(MsgGap)
	fl.queue[fl.head] = nil
	fl.head++
	if fl.head == len(fl.queue) {
		fl.queue = fl.queue[:0]
		fl.head = 0
		fl.active = false
		return
	}
	fl.startHead()
}

// deliver runs on the destination engine at the instant the last byte is
// placed at the destination.
func (fm *flowMsg) deliver() {
	fm.fl.dst.bytesReceived += int64(fm.msg.Bytes)
	if fn := fm.msg.OnDeliver; fn != nil {
		fn(fm.lastArrival)
	}
}

// ack runs on the source engine when the sender's hardware completion
// would be generated.
func (fm *flowMsg) ack() {
	fn, at := fm.msg.OnAck, fm.ackAt
	fm.fl.release(fm)
	fn(at)
}

// linkState is one serialization cursor on a route: a graph-topology link
// or a port's ingress. Each burst crossing it is charged
// wireBytes*byteTime on the cursor in canonical order, then propagates for
// the link latency toward the next hop — the per-link LogGP {latency,
// byteTime} pair, both zero on a port's ingress. All fields are owned by
// eng (the engine of the link's OwnerHost, or the port's).
type linkState struct {
	eng      *sim.Engine
	lat      time.Duration
	byteTime float64 // resolved: Link.ByteTime or LinkByteTime

	freeAt sim.Time
	// pending batches hop reservations that fired at the same virtual
	// instant so the cursor can charge them in canonical (arrival bound,
	// source, destination, flow) order one nanosecond later: event order
	// at a timestamp tie depends on the shard layout, the canonical order
	// does not. flushAt is the instant of the scheduled flush (at most one
	// per instant).
	pending []*hopResv
	flushAt sim.Time

	// stats is the graph link's entry in Fabric.stats (nil on a port's
	// ingress, which LinkStats does not report).
	stats *LinkStats
}

// queueHistBuckets sizes the log2 queueing-delay histogram: bucket 0
// counts zero-delay charges, bucket b >= 1 counts delays in
// [2^(b-1), 2^b) nanoseconds; 40 buckets span past 18 virtual minutes.
const queueHistBuckets = 40

func queueHistBucket(d time.Duration) int {
	b := bits.Len64(uint64(d))
	if b >= queueHistBuckets {
		b = queueHistBuckets - 1
	}
	return b
}

// LinkStats is the observable state of one link cursor after a run: how
// many bytes it carried, how long it was busy serializing, and the
// queueing-delay distribution its contention produced.
type LinkStats struct {
	Link     Link
	Bytes    int64
	Charges  int64
	Busy     time.Duration
	MaxQueue time.Duration
	// QueueHist[0] counts charges that waited zero time for the cursor;
	// QueueHist[b] (b >= 1) counts queueing delays in [2^(b-1), 2^b) ns.
	QueueHist [queueHistBuckets]int64
}

// QueuePercentile returns an upper bound on the p-quantile (0 < p <= 1)
// of the link's queueing delay, read from the log2 histogram: exact for
// zero delays, within 2x above.
func (s *LinkStats) QueuePercentile(p float64) time.Duration {
	if s.Charges == 0 {
		return 0
	}
	rank := int64(p * float64(s.Charges))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range s.QueueHist {
		cum += c
		if cum >= rank {
			if b == 0 {
				return 0
			}
			up := time.Duration(1) << uint(b)
			if up > s.MaxQueue {
				up = s.MaxQueue
			}
			return up
		}
	}
	return s.MaxQueue
}

// LinkStats returns a snapshot of every link cursor's statistics (empty
// for flat topologies). Call it after the simulation has stopped.
func (f *Fabric) LinkStats() []LinkStats {
	out := make([]LinkStats, len(f.stats))
	copy(out, f.stats)
	return out
}

// hopResv is one burst traversing its flow's route. It snapshots
// everything the downstream cursors need, hops cursor to cursor, and
// returns to the flow's free list with its message (see flowMsg.hops).
type hopResv struct {
	at        sim.Time // reservation fire instant at the current link (batch key)
	arrive    sim.Time // arrival lower bound at the current link's cursor
	wireBytes int32
	hop       int32
	final     bool     // the message's last burst: deliver and complete after the last hop
	fm        *flowMsg // the burst's message; fm.fl is its flow
	// next links the message's hop chain, or the flow's free list. Only
	// the source engine touches it.
	next *hopResv
}

// takeHop pops a hop record from the flow's free list. Runs on the source
// engine (from step).
func (fl *Flow) takeHop() *hopResv {
	hr := fl.hopFree
	if hr == nil {
		return &hopResv{}
	}
	fl.hopFree = hr.next
	return hr
}

// hopBefore is the canonical link-charge order within one instant's
// batch: earlier arrival bound first, then source port, destination
// port, and flow identity. Distinct flows never compare equal (the
// identity is unique per pair and direction), and equal keys — burst
// pairs of one flow — keep their FIFO order because the insertion sort
// is stable and per-flow hops arrive in injection order.
func hopBefore(a, b *hopResv) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	af, bf := a.fm.fl, b.fm.fl
	if af.src.id != bf.src.id {
		return af.src.id < bf.src.id
	}
	if af.dst.id != bf.dst.id {
		return af.dst.id < bf.dst.id
	}
	return af.flowID < bf.flowID
}

// fireLinkResv runs on a cursor's engine when a burst reaches the cursor.
// The cursor is not charged here: reservations from different flows can
// fire at the same virtual instant in shard-layout-dependent event order,
// so the reservation joins the cursor's pending batch and a flush one
// nanosecond later charges the whole instant's batch in canonical order.
func fireLinkResv(at sim.Time, arg any) {
	hr := arg.(*hopResv)
	l := hr.fm.fl.route[hr.hop]
	hr.at = at
	l.pending = append(l.pending, hr)
	if flushAt := at + 1; l.flushAt < flushAt {
		l.flushAt = flushAt
		l.eng.AtCall(flushAt, fireLinkFlush, l)
	}
}

// fireLinkFlush charges the previous instant's batch on the cursor in
// canonical order. Only entries that fired strictly before this flush are
// processed: an entry firing at the flush instant itself may sit in the
// buffer already or not (seq order at the tie is arbitrary), so it is left
// for its own flush either way.
func fireLinkFlush(now sim.Time, arg any) {
	l := arg.(*linkState)
	pending := l.pending
	n := 0
	for n < len(pending) && pending[n].at < now {
		n++
	}
	batch := pending[:n]
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && hopBefore(batch[j], batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for _, hr := range batch {
		l.charge(now, hr)
	}
	kept := copy(pending, pending[n:])
	for i := kept; i < len(pending); i++ {
		pending[i] = nil
	}
	l.pending = pending[:kept]
}

// charge serializes one burst onto the cursor and forwards it: to the next
// cursor's batch one link latency ahead, or — after the route's last
// cursor — onto the destination host, scheduling delivery and routing the
// completion or recycle back to the source. Every cross-engine post is at
// least one link latency (next hop) or one pair lookahead (return path) in
// the future, so the hops stay conservative under the cluster's topology
// lookahead matrix.
func (l *linkState) charge(now sim.Time, hr *hopResv) {
	start := hr.arrive
	if l.freeAt > start {
		start = l.freeAt
	}
	tx := time.Duration(float64(hr.wireBytes) * l.byteTime)
	end := start.Add(tx)
	l.freeAt = end

	if s := l.stats; s != nil {
		s.Busy += tx
		s.Bytes += int64(hr.wireBytes)
		s.Charges++
		qd := time.Duration(start - hr.arrive)
		if qd > s.MaxQueue {
			s.MaxQueue = qd
		}
		s.QueueHist[queueHistBucket(qd)]++
	}

	fm := hr.fm
	fl := fm.fl
	hr.arrive = end.Add(l.lat)
	hr.hop++
	if int(hr.hop) < len(fl.route) {
		l.eng.Post(fl.route[hr.hop].eng, now.Add(l.lat), fireLinkResv, hr)
		return
	}
	// Last hop: the burst has crossed the destination's down link or
	// ingress. That cursor is owned by the destination host's engine, so
	// delivery is a local event.
	if !hr.final {
		return
	}
	fm.lastArrival = hr.arrive
	l.eng.AtCall(hr.arrive, fireFlowDeliver, fm)
	if fm.msg.OnAck != nil {
		fm.ackAt = hr.arrive.Add(fl.ackLat)
		l.eng.Post(fl.eng, fm.ackAt, fireFlowAck, fm)
	} else {
		// No completion requested: the struct still belongs to the source
		// engine's free list, so send it home one pair lookahead after the
		// delivery (the recycle instant has no observable effect).
		l.eng.Post(fl.eng, hr.arrive.Add(fl.relLat), fireFlowRelease, fm)
	}
}
