package fabric

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/loggp"
	"repro/internal/sim"
)

func testFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, Config{})
}

// TestConfigValidate checks that the topology is validated: the cost
// model is constant, so the topology is all a Config can get wrong.
func TestConfigValidate(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*Topology{nil, SingleLink(), TwoLevel(2, 0), TwoLevel(2, 750*time.Nanosecond), ft} {
		if err := (Config{Topo: topo}).Validate(); err != nil {
			t.Errorf("%v: %v", topo, err)
		}
	}
	withLink := func(mut func(*Link)) *Topology {
		bad := *ft
		bad.links = append([]Link(nil), ft.links...)
		mut(&bad.links[0])
		return &bad
	}
	nan, _ := NewFatTree(FatTreeConfig{K: 4, ByteTime: math.NaN()})
	inf, _ := NewFatTree(FatTreeConfig{K: 4, ByteTime: math.Inf(1)})
	for i, topo := range []*Topology{
		TwoLevel(2, -time.Nanosecond),
		TwoLevel(0, -time.Nanosecond),
		nan,
		inf,
		withLink(func(l *Link) { l.Latency = 0 }),
		withLink(func(l *Link) { l.ByteTime = -1 }),
		withLink(func(l *Link) { l.OwnerHost = -1 }),
		{name: "empty"},
	} {
		if err := (Config{Topo: topo}).Validate(); err == nil {
			t.Errorf("case %d: invalid topology %q accepted", i, topo.Name())
		}
	}
}

func TestSingleMessageLatency(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)

	const k = 4096
	var deliveredAt, ackAt sim.Time
	fl.Send(Message{
		Bytes:     k,
		OnDeliver: func(at sim.Time) { deliveredAt = at },
		OnAck:     func(at sim.Time) { ackAt = at },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wireBytes := k + loggp.Packets(k, MTU)*PacketHeader
	want := sim.Time(0).
		Add(WRProcess).
		Add(time.Duration(float64(wireBytes) * LinkByteTime)).
		Add(WireLatency)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if ackAt != want.Add(AckLatency) {
		t.Errorf("ack at %v, want %v", ackAt, want.Add(AckLatency))
	}
}

func TestZeroByteMessageMoves(t *testing.T) {
	// A zero-byte send still pays WRProcess and serializes one header
	// packet.
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	delivered := false
	var deliveredAt, ackAt sim.Time
	fl.Send(Message{
		Bytes:     0,
		OnDeliver: func(at sim.Time) { delivered, deliveredAt = true, at },
		OnAck:     func(at sim.Time) { ackAt = at },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("zero-byte message not delivered")
	}
	headerBytes := loggp.Packets(0, MTU) * PacketHeader
	want := sim.Time(0).
		Add(WRProcess).
		Add(time.Duration(float64(headerBytes) * LinkByteTime)).
		Add(WireLatency)
	if deliveredAt != want {
		t.Errorf("zero-byte delivered at %v, want %v (headers must travel)", deliveredAt, want)
	}
	if ackAt != want.Add(AckLatency) {
		t.Errorf("ack at %v, want %v", ackAt, want.Add(AckLatency))
	}
	if b.BytesReceived() != 0 {
		t.Errorf("receiver counted %d payload bytes, want 0", b.BytesReceived())
	}
	if a.MessagesSent() != 1 {
		t.Errorf("sender counted %d messages, want 1", a.MessagesSent())
	}
}

// TestFastPaceMultiBurstDeliversOnce is the regression test for bursts
// paced faster than the pair latency: on a two-level fabric with a 20 µs
// cross-rack extra, a 64 KiB burst leaves every ~9.2 µs against a 21 µs
// wire, so several bursts of one message are in flight at once. Every
// burst must travel on its own state, so each message is delivered
// exactly once, acked exactly once, and delivered when its last burst
// lands.
func TestFastPaceMultiBurstDeliversOnce(t *testing.T) {
	topo := TwoLevel(1, 20*time.Microsecond)
	burst := BurstBytes
	if pace, lat := time.Duration(float64(burst)*PerQPByteTime), topo.PairLatency(0, 1); pace >= lat {
		t.Fatalf("burst pacing %v is not shorter than the pair latency %v", pace, lat)
	}
	for _, tc := range []struct {
		bytes          int
		deliver, acked sim.Time
	}{
		{96 << 10, 33028, 54028},
		{128 << 10, 35857, 56857},
		{640 << 10, 109257, 130257},
	} {
		e := sim.NewEngine()
		f := New(e, Config{Topo: topo})
		fl := f.NewFlow(f.NewPort("a"), f.NewPort("b"))
		var delivered, acked []sim.Time
		fl.Send(Message{
			Bytes:     tc.bytes,
			OnDeliver: func(at sim.Time) { delivered = append(delivered, at) },
			OnAck:     func(at sim.Time) { acked = append(acked, at) },
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%d B: %v", tc.bytes, err)
		}
		if len(delivered) != 1 || len(acked) != 1 {
			t.Fatalf("%d B: delivered at %v, acked at %v; want one of each", tc.bytes, delivered, acked)
		}
		if delivered[0] != tc.deliver || acked[0] != tc.acked {
			t.Errorf("%d B: delivered at %v, acked at %v; want %v and %v",
				tc.bytes, delivered[0], acked[0], tc.deliver, tc.acked)
		}
	}
}

// TestFlowSteadyStateZeroAllocs is the allocation regression gate on the
// fabric hot path: once the event, flowMsg and hop free lists are warm, a
// full message lifetime allocates nothing. On the single link a message
// is sent, injected in several bursts, delivered and acked. On a k=4
// fat-tree two hosts send into a third at the same instant without
// asking for a completion: their bursts meet on a shared link, whose
// cursor sorts the instant's batch into canonical order and records the
// queueing delay, and each message goes back to its flow's free list by
// the release event.
func TestFlowSteadyStateZeroAllocs(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		topo    *Topology
		senders int
		ack     bool
	}{
		{"single-link", nil, 1, true},
		{"fat-tree", ft, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			f := New(e, Config{Topo: tc.topo})
			srcs := make([]*Port, tc.senders)
			for i := range srcs {
				srcs[i] = f.NewPort(fmt.Sprintf("src%d", i))
			}
			dst := f.NewPort("dst")
			flows := make([]*Flow, tc.senders)
			for i, src := range srcs {
				flows[i] = f.NewFlow(src, dst)
			}
			delivered, acked := 0, 0
			msg := Message{Bytes: 200 << 10, OnDeliver: func(sim.Time) { delivered++ }}
			if tc.ack {
				msg.OnAck = func(sim.Time) { acked++ }
			}
			round := func() {
				// 200 KiB spans multiple bursts, exercising step
				// rescheduling.
				for _, fl := range flows {
					fl.Send(msg)
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ { // warm the free lists
				round()
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("steady-state round costs %.1f allocs, want 0", allocs)
			}
			if want := 105 * tc.senders; delivered != want {
				t.Fatalf("delivered %d messages, want %d", delivered, want)
			}
			if tc.ack && acked != delivered {
				t.Fatalf("delivered %d, acked %d", delivered, acked)
			}
			if tc.senders > 1 {
				var queued time.Duration
				for _, s := range f.LinkStats() {
					queued = max(queued, s.MaxQueue)
				}
				if queued == 0 {
					t.Error("the flows never queued on a shared link")
				}
			}
		})
	}
}

// BenchmarkFlowMessage measures one full message lifetime on a warm flow.
func BenchmarkFlowMessage(b *testing.B) {
	e := sim.NewEngine()
	f := New(e, Config{})
	fl := f.NewFlow(f.NewPort("a"), f.NewPort("b"))
	onAck := func(sim.Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Send(Message{Bytes: 4096, OnAck: onAck})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNegativeSizePanics(t *testing.T) {
	_, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	defer func() {
		if recover() == nil {
			t.Fatal("negative message size did not panic")
		}
	}()
	fl.Send(Message{Bytes: -1})
}

func TestFlowDeliversInOrder(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		fl.Send(Message{Bytes: 1024 * (5 - i), OnDeliver: func(sim.Time) { order = append(order, i) }})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v", order)
		}
	}
}

func TestPerFlowBandwidthCap(t *testing.T) {
	// One flow alone must be limited by PerQPByteTime, not LinkByteTime.
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	const size = 32 << 20
	var deliveredAt sim.Time
	fl.Send(Message{Bytes: size, OnDeliver: func(at sim.Time) { deliveredAt = at }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(size) / float64(deliveredAt.Duration().Seconds()) / 1e9
	perQP := 1 / PerQPByteTime // GB/s
	if gbps > perQP*1.02 {
		t.Errorf("single flow %.2f GB/s exceeds per-QP cap %.2f", gbps, perQP)
	}
	if gbps < perQP*0.95 {
		t.Errorf("single flow %.2f GB/s well below per-QP cap %.2f", gbps, perQP)
	}
}

func TestTwoFlowsSaturateLink(t *testing.T) {
	// Two flows from the same port must exceed one flow's cap and approach
	// the link rate — the effect behind the paper's Figure 7.
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	const size = 32 << 20
	var last sim.Time
	done := func(at sim.Time) {
		if at > last {
			last = at
		}
	}
	f.NewFlow(a, b).Send(Message{Bytes: size, OnDeliver: done})
	f.NewFlow(a, b).Send(Message{Bytes: size, OnDeliver: done})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(2*size) / last.Duration().Seconds() / 1e9
	perQP := 1 / PerQPByteTime
	link := 1 / LinkByteTime
	if gbps <= perQP {
		t.Errorf("two flows %.2f GB/s did not beat single-flow cap %.2f", gbps, perQP)
	}
	if gbps > link*1.02 {
		t.Errorf("two flows %.2f GB/s exceed link rate %.2f", gbps, link)
	}
}

func TestSmallMessageInterleavesWithBulk(t *testing.T) {
	// A small message on flow 2 posted just after a huge message on flow 1
	// must not wait for the whole bulk transfer (burst-granularity
	// arbitration).
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	bulk, small := f.NewFlow(a, b), f.NewFlow(a, b)
	var bulkAt, smallAt sim.Time
	bulk.Send(Message{Bytes: 64 << 20, OnDeliver: func(at sim.Time) { bulkAt = at }})
	e.After(10*time.Microsecond, func() {
		small.Send(Message{Bytes: 4096, OnDeliver: func(at sim.Time) { smallAt = at }})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if smallAt >= bulkAt {
		t.Fatalf("small message (%v) blocked behind bulk (%v)", smallAt, bulkAt)
	}
	if smallAt.Duration() > time.Millisecond {
		t.Fatalf("small message delayed %v; arbitration granularity too coarse", smallAt)
	}
}

func TestMsgGapSpacesMessages(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	var times []sim.Time
	for i := 0; i < 2; i++ {
		fl.Send(Message{Bytes: 1, OnDeliver: func(at sim.Time) { times = append(times, at) }})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gap := times[1].Sub(times[0])
	// Second message is spaced by at least MsgGap + WRProcess.
	if gap < MsgGap+WRProcess {
		t.Fatalf("inter-message spacing %v < g+WRProcess", gap)
	}
}

func TestLoopbackFlow(t *testing.T) {
	e, f := testFabric(t)
	a := f.NewPort("a")
	fl := f.NewFlow(a, a)
	ok := false
	fl.Send(Message{Bytes: 100, OnDeliver: func(sim.Time) { ok = true }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("loopback message not delivered")
	}
}

func TestPortStatistics(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	fl.Send(Message{Bytes: 1000})
	fl.Send(Message{Bytes: 2000})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.BytesSent() != 3000 || a.MessagesSent() != 2 {
		t.Errorf("sender stats: %d bytes, %d msgs", a.BytesSent(), a.MessagesSent())
	}
	if b.BytesReceived() != 3000 {
		t.Errorf("receiver stats: %d bytes", b.BytesReceived())
	}
}

func TestControlPlaneFIFOAndLatency(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	var got []int
	var at []sim.Time
	b.SetControlHandler(func(from *Port, m Control) {
		if from != a {
			t.Errorf("control from %v, want a", from.Name())
		}
		got = append(got, m.Data.(int))
		at = append(at, e.Now())
	})
	for i := 0; i < 3; i++ {
		a.SendControl(b, Control{Data: i})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("control order %v", got)
		}
	}
	if at[0] != sim.Time(CtrlLatency) {
		t.Errorf("first control at %v, want %v", at[0], CtrlLatency)
	}
	if !(at[0] < at[1] && at[1] < at[2]) {
		t.Errorf("control deliveries not strictly ordered: %v", at)
	}
}

// TestControlRecordsStayBounded sends one-way control traffic. Between
// ports on one engine the sender gets its records back and stops
// allocating; across engines the receiver keeps at most one record per
// port.
func TestControlRecordsStayBounded(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	b.SetControlHandler(func(*Port, Control) {})
	send := func() {
		a.SendControl(b, Control{})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("one-way control send allocates %.1f/op, want 0", allocs)
	}
	if len(a.ctrlFree) != 1 || len(b.ctrlFree) != 0 {
		t.Errorf("free lists a=%d b=%d after one-way traffic, want 1 and 0", len(a.ctrlFree), len(b.ctrlFree))
	}

	// A port owned by a second engine: the receiver may not hand records
	// back across engines, so it keeps them, but only up to the cap.
	e2 := sim.NewEngine()
	c := f.NewPortOn(e2, "c")
	c.SetControlHandler(func(*Port, Control) {})
	for i := 0; i < 100; i++ {
		a.SendControl(c, Control{})
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.ctrlFree) != 3 {
		t.Errorf("cross-engine receiver kept %d records, want one per port (3)", len(c.ctrlFree))
	}
}

func TestControlWithoutHandlerPanics(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	a.SendControl(b, Control{Data: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("control delivery without handler did not panic")
		}
	}()
	_ = e.Run()
}

// TestControlSameInstantCanonicalOrder has seven senders hit one port at a
// single instant, several messages each, with the sends issued in
// ascending, descending and interleaved sender order. Delivery must follow
// source port, then per-sender FIFO, stamped at the arrival instant and
// one nanosecond apart after it, whatever the issue order, serially and on
// 2- and 4-shard sets.
func TestControlSameInstantCanonicalOrder(t *testing.T) {
	const ports, dstID, perSender = 8, 3, 3
	const sendAt = sim.Time(time.Microsecond)
	type send struct{ src, seq int }
	// issue lists the sends in the order they are issued at sendAt; seq
	// numbers each sender's sends in issue order.
	issue := func(senders []int, bySender bool) []send {
		var out []send
		next := make([]int, ports)
		add := func(s int) {
			out = append(out, send{s, next[s]})
			next[s]++
		}
		if bySender {
			for _, s := range senders {
				for k := 0; k < perSender; k++ {
					add(s)
				}
			}
		} else {
			for k := 0; k < perSender; k++ {
				for _, s := range senders {
					add(s)
				}
			}
		}
		return out
	}
	type delivery struct {
		send
		at sim.Time
	}
	run := func(sends []send, shards int) []delivery {
		var engineOf func(port int) *sim.Engine
		var set *sim.ShardSet
		if shards > 1 {
			la := Config{}.Lookahead()
			lam := make([][]time.Duration, shards)
			for s := range lam {
				lam[s] = make([]time.Duration, shards)
				for d := range lam[s] {
					lam[s][d] = la
				}
			}
			set = sim.NewShardSet(lam)
			engineOf = func(port int) *sim.Engine { return set.Engine(port * shards / ports) }
		} else {
			e := sim.NewEngine()
			engineOf = func(int) *sim.Engine { return e }
		}
		f := New(engineOf(0), Config{})
		ps := make([]*Port, ports)
		for i := range ps {
			ps[i] = f.NewPortOn(engineOf(i), fmt.Sprintf("p%d", i))
		}
		dst := ps[dstID]
		var got []delivery
		dst.SetControlHandler(func(from *Port, m Control) {
			got = append(got, delivery{m.Data.(send), dst.Engine().Now()})
			if from.ID() != m.Data.(send).src {
				t.Errorf("control from port %d carries sender %d", from.ID(), m.Data.(send).src)
			}
		})
		for _, s := range sends {
			s := s
			src := ps[s.src]
			src.Engine().At(sendAt, func() { src.SendControl(dst, Control{Data: s}) })
		}
		var err error
		if set != nil {
			err = set.Run(2)
		} else {
			err = engineOf(0).Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	arrive := sendAt.Add(CtrlLatency)
	for _, tc := range []struct {
		name  string
		sends []send
	}{
		{"ascending", issue([]int{0, 1, 2, 4, 5, 6, 7}, true)},
		{"descending", issue([]int{7, 6, 5, 4, 2, 1, 0}, true)},
		{"interleaved", issue([]int{5, 0, 7, 2, 4, 1, 6}, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]delivery, len(tc.sends))
			for i, s := range tc.sends {
				want[i].send = s
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].src != want[j].src {
					return want[i].src < want[j].src
				}
				return want[i].seq < want[j].seq
			})
			for i := range want {
				want[i].at = arrive + sim.Time(i)
			}
			for _, shards := range []int{1, 2, 4} {
				if got := run(tc.sends, shards); !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d: deliveries\n%v\nwant\n%v", shards, got, want)
				}
			}
		})
	}
}

// TestPortFitsSizeClass pins Port inside Go's 208-byte size class; one
// more word would put every port in the next class.
func TestPortFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Port{}); n > 208 {
		t.Fatalf("unsafe.Sizeof(Port{}) = %d, want <= 208", n)
	}
}

func TestNewFlowValidation(t *testing.T) {
	e1 := sim.NewEngine()
	f1 := New(e1, Config{})
	e2 := sim.NewEngine()
	f2 := New(e2, Config{})
	p1 := f1.NewPort("p1")
	p2 := f2.NewPort("p2")
	for name, fn := range map[string]func(){
		"nil port":      func() { f1.NewFlow(p1, nil) },
		"cross fabrics": func() { f1.NewFlow(p1, p2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAggregationBeatsManySmallMessages(t *testing.T) {
	// The core premise of the paper: for medium payloads, one large WR
	// completes sooner than 32 small WRs on the same flow, because each WR
	// pays WRProcess + MsgGap + per-packet headers.
	cfgRun := func(parts int) sim.Time {
		e := sim.NewEngine()
		f := New(e, Config{})
		a, b := f.NewPort("a"), f.NewPort("b")
		fl := f.NewFlow(a, b)
		const total = 128 << 10
		var last sim.Time
		for i := 0; i < parts; i++ {
			fl.Send(Message{Bytes: total / parts, OnDeliver: func(at sim.Time) {
				if at > last {
					last = at
				}
			}})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	one, many := cfgRun(1), cfgRun(32)
	if one >= many {
		t.Fatalf("aggregated %v not faster than 32 messages %v", one, many)
	}
}
