package fabric

import (
	"testing"
	"time"

	"repro/internal/loggp"
	"repro/internal/sim"
)

func testFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, DefaultConfig())
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MTU = 0 },
		func(c *Config) { c.BurstBytes = c.MTU - 1 },
		func(c *Config) { c.PacketHeader = -1 },
		func(c *Config) { c.LinkByteTime = 0 },
		func(c *Config) { c.PerQPByteTime = c.LinkByteTime / 2 },
		func(c *Config) { c.WireLatency = -time.Nanosecond },
		func(c *Config) { c.MsgGap = -time.Nanosecond },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTrueParamsMirrorsConfig(t *testing.T) {
	c := DefaultConfig()
	p := c.TrueParams()
	if p.L != c.WireLatency || p.G != c.LinkByteTime || p.Gap != c.MsgGap {
		t.Fatalf("TrueParams = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleMessageLatency(t *testing.T) {
	e, f := testFabric(t)
	cfg := f.Config()
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
	wireBytes := k + loggp.Packets(k, cfg.MTU)*cfg.PacketHeader
	want := sim.Time(0).
		Add(cfg.WRProcess).
		Add(time.Duration(float64(wireBytes) * cfg.LinkByteTime)).
		Add(cfg.WireLatency)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if ackAt != want.Add(cfg.AckLatency) {
		t.Errorf("ack at %v, want %v", ackAt, want.Add(cfg.AckLatency))
	}
}

func TestZeroByteMessageMoves(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	delivered := false
	fl.Send(Message{Bytes: 0, OnDeliver: func(sim.Time) { delivered = true }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("zero-byte message not delivered")
	}
	if e.Now() == 0 {
		t.Fatal("zero-byte message took zero time (headers must travel)")
	}
}

func TestZeroByteInlineMessage(t *testing.T) {
	// A zero-byte inline send still serializes one header packet, but the
	// NIC charges InlineWRProcess (payload rides the doorbell write) instead
	// of the WQE-fetch cost WRProcess.
	e, f := testFabric(t)
	cfg := f.Config()
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	var deliveredAt, ackAt sim.Time
	fl.Send(Message{
		Bytes:     0,
		Inline:    true,
		OnDeliver: func(at sim.Time) { deliveredAt = at },
		OnAck:     func(at sim.Time) { ackAt = at },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	headerBytes := loggp.Packets(0, cfg.MTU) * cfg.PacketHeader
	want := sim.Time(0).
		Add(cfg.InlineWRProcess).
		Add(time.Duration(float64(headerBytes) * cfg.LinkByteTime)).
		Add(cfg.WireLatency)
	if deliveredAt != want {
		t.Errorf("inline zero-byte delivered at %v, want %v", deliveredAt, want)
	}
	if ackAt != want.Add(cfg.AckLatency) {
		t.Errorf("ack at %v, want %v", ackAt, want.Add(cfg.AckLatency))
	}
	if b.BytesReceived() != 0 {
		t.Errorf("receiver counted %d payload bytes, want 0", b.BytesReceived())
	}
	if a.MessagesSent() != 1 {
		t.Errorf("sender counted %d messages, want 1", a.MessagesSent())
	}
}

func TestInlineSkipsWRProcess(t *testing.T) {
	// Same payload, inline vs not: delivery times must differ by exactly
	// WRProcess - InlineWRProcess.
	deliverAt := func(inline bool) sim.Time {
		e, f := testFabric(t)
		fl := f.NewFlow(f.NewPort("a"), f.NewPort("b"))
		var at sim.Time
		fl.Send(Message{Bytes: 64, Inline: inline, OnDeliver: func(a sim.Time) { at = a }})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	cfg := DefaultConfig()
	plain, inline := deliverAt(false), deliverAt(true)
	if got, want := plain.Sub(inline), cfg.WRProcess-cfg.InlineWRProcess; got != want {
		t.Errorf("inline saves %v, want %v", got, want)
	}
}

// TestFastPaceMultiBurstDeliversOnce is the regression test for bursts
// paced faster than the wire latency (BurstBytes = MTU: a 4 KiB burst
// every 573 ns against a 1 µs wire). Every burst must travel on its own
// state, so each message is delivered exactly once, acked exactly once,
// and delivered when its last burst lands.
func TestFastPaceMultiBurstDeliversOnce(t *testing.T) {
	for _, tc := range []struct {
		bytes int
		want  sim.Time
	}{
		{8 << 10, 1951},
		{12 << 10, 2524},
		{64 << 10, 9973},
	} {
		cfg := DefaultConfig()
		cfg.BurstBytes = cfg.MTU
		e := sim.NewEngine()
		f := New(e, cfg)
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
		if delivered[0] != tc.want || acked[0] != tc.want.Add(cfg.AckLatency) {
			t.Errorf("%d B: delivered at %v, acked at %v; want %v and %v",
				tc.bytes, delivered[0], acked[0], tc.want, tc.want.Add(cfg.AckLatency))
		}
	}
}

// TestFlowSteadyStateZeroAllocs is the allocation regression gate on the
// fabric hot path: once the event and flowMsg free lists are warm, a full
// message lifetime (send, multi-burst injection, delivery, ack) allocates
// nothing.
func TestFlowSteadyStateZeroAllocs(t *testing.T) {
	e, f := testFabric(t)
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	delivered, acked := 0, 0
	onDeliver := func(sim.Time) { delivered++ }
	onAck := func(sim.Time) { acked++ }
	round := func() {
		// 200 KiB spans multiple bursts, exercising step rescheduling.
		fl.Send(Message{Bytes: 200 << 10, OnDeliver: onDeliver, OnAck: onAck})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm the free lists
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("steady-state message costs %.1f allocs, want 0", allocs)
	}
	if delivered == 0 || acked != delivered {
		t.Fatalf("delivered %d, acked %d", delivered, acked)
	}
}

// BenchmarkFlowMessage measures one full message lifetime on a warm flow.
func BenchmarkFlowMessage(b *testing.B) {
	e := sim.NewEngine()
	f := New(e, DefaultConfig())
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
	cfg := f.Config()
	a, b := f.NewPort("a"), f.NewPort("b")
	fl := f.NewFlow(a, b)
	const size = 32 << 20
	var deliveredAt sim.Time
	fl.Send(Message{Bytes: size, OnDeliver: func(at sim.Time) { deliveredAt = at }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(size) / float64(deliveredAt.Duration().Seconds()) / 1e9
	perQP := 1 / cfg.PerQPByteTime // GB/s
	link := 1 / cfg.LinkByteTime
	if gbps > perQP*1.02 {
		t.Errorf("single flow %.2f GB/s exceeds per-QP cap %.2f", gbps, perQP)
	}
	if gbps < perQP*0.95 {
		t.Errorf("single flow %.2f GB/s well below per-QP cap %.2f", gbps, perQP)
	}
	_ = link
}

func TestTwoFlowsSaturateLink(t *testing.T) {
	// Two flows from the same port must exceed one flow's cap and approach
	// the link rate — the effect behind the paper's Figure 7.
	e, f := testFabric(t)
	cfg := f.Config()
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
	perQP := 1 / cfg.PerQPByteTime
	link := 1 / cfg.LinkByteTime
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
	cfg := f.Config()
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
	if gap < cfg.MsgGap+cfg.WRProcess {
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
	cfg := f.Config()
	a, b := f.NewPort("a"), f.NewPort("b")
	var got []int
	var at []sim.Time
	b.SetControlHandler(func(from *Port, payload any) {
		if from != a {
			t.Errorf("control from %v, want a", from.Name())
		}
		got = append(got, payload.(int))
		at = append(at, e.Now())
	})
	for i := 0; i < 3; i++ {
		a.SendControl(b, i)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("control order %v", got)
		}
	}
	if at[0] != sim.Time(cfg.CtrlLatency) {
		t.Errorf("first control at %v, want %v", at[0], cfg.CtrlLatency)
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
	b.SetControlHandler(func(*Port, any) {})
	send := func() {
		a.SendControl(b, nil)
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
	c.SetControlHandler(func(*Port, any) {})
	for i := 0; i < 100; i++ {
		a.SendControl(c, nil)
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
	a.SendControl(b, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("control delivery without handler did not panic")
		}
	}()
	_ = e.Run()
}

func TestNewFlowValidation(t *testing.T) {
	e1 := sim.NewEngine()
	f1 := New(e1, DefaultConfig())
	e2 := sim.NewEngine()
	f2 := New(e2, DefaultConfig())
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
		f := New(e, DefaultConfig())
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
