package fabric

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// parseTopologyGood lists specs ParseTopology accepts, with the
// topology name each yields.
var parseTopologyGood = []struct {
	spec string
	name string
}{
	{"", "single-link"},
	{"single-link", "single-link"},
	{"two-level:rack=4", "two-level:rack=4,extra=750ns"},
	{"two-level:rack=4,extra=2us", "two-level:rack=4,extra=2µs"},
	{"fat-tree:k=8", "fat-tree:k=8"},
	{"fat-tree:k=4,cable=1us,down=2us,G=0.1", "fat-tree:k=4"},
	{"dragonfly:groups=3,routers=2,hosts=1", "dragonfly:groups=3,routers=2,hosts=1"},
}

// parseTopologyBad lists specs ParseTopology rejects.
var parseTopologyBad = []string{
	"mesh:k=3",
	"fat-tree:k=3",         // odd radix
	"fat-tree:k=4,bogus=1", // unknown key
	"fat-tree:k=x",         // bad int
	"two-level:rack=0",     // no rack size
	"dragonfly:groups=1",   // single group
	"fat-tree:k=4,cable=5", // missing duration unit
	"dragonfly:groups=3,routers=2,hosts=1,global=100ns", // < 2*cable
	"two-level:rack=1,extra=-2us",                       // negative extra
	"fat-tree:k=4,G=NaN",                                // non-finite byte time
	"fat-tree:k=4,G=Inf",
	"fat-tree:k=4,k=8", // repeated key
	"two-level:rack=8,rack=2",
	"dragonfly:groups=3,groups=5",
}

func TestParseTopology(t *testing.T) {
	for _, c := range parseTopologyGood {
		topo, err := ParseTopology(c.spec)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", c.spec, err)
			continue
		}
		if topo.Name() != c.name {
			t.Errorf("ParseTopology(%q).Name() = %q, want %q", c.spec, topo.Name(), c.name)
		}
	}
	for _, spec := range parseTopologyBad {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("ParseTopology(%q) accepted", spec)
		}
	}
}

// FuzzParseTopology checks that every spec either fails to parse or
// yields a topology the simulator can run: valid, with positive link
// latencies and finite, non-negative byte times, and with every sampled
// pair lookahead at or above a positive floor. Specs holding an integer
// above 64 are skipped, so the fuzzer cannot ask for a huge topology.
func FuzzParseTopology(f *testing.F) {
	for _, c := range parseTopologyGood {
		f.Add(c.spec)
	}
	for _, spec := range parseTopologyBad {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, run := range regexp.MustCompile(`[0-9]+`).FindAllString(spec, -1) {
			if n, err := strconv.Atoi(run); err != nil || n > 64 {
				t.Skip()
			}
		}
		topo, err := ParseTopology(spec)
		if err != nil {
			return
		}
		cfg := Config{Topo: topo}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) yields an invalid topology: %v", spec, err)
		}
		for i := 0; i < topo.Links(); i++ {
			l := topo.LinkAt(i)
			if bt := l.ByteTime; l.Latency <= 0 || math.IsNaN(bt) || math.IsInf(bt, 0) || bt < 0 {
				t.Fatalf("ParseTopology(%q): link %q has latency %v, byte time %v", spec, l.Name, l.Latency, bt)
			}
		}
		floor := cfg.Lookahead()
		if floor <= 0 {
			t.Fatalf("ParseTopology(%q): lookahead %v", spec, floor)
		}
		hosts := topo.Hosts()
		if hosts == 0 {
			hosts = 64 // flat: any port count; sample the first 64
		}
		for i := 0; i < 64; i++ {
			a, b := i*7%hosts, (i*13+1)%hosts
			if pl := cfg.PairLookahead(a, b); pl < floor {
				t.Fatalf("ParseTopology(%q): PairLookahead(%d, %d) = %v below the floor %v", spec, a, b, pl, floor)
			}
		}
	})
}

// runPattern drives a small many-to-one plus pairwise pattern and returns
// every delivery and ack timestamp, in a traffic-determined order.
func runPattern(t *testing.T, cfg Config) []sim.Time {
	t.Helper()
	e := sim.NewEngine()
	f := New(e, cfg)
	const n = 6
	ports := make([]*Port, n)
	for i := range ports {
		ports[i] = f.NewPort("p")
	}
	var stamps []sim.Time
	for i := 1; i < n; i++ {
		fl := f.NewFlowID(ports[i], ports[0], uint64(i))
		fl.Send(Message{
			Bytes:     100 << uint(i),
			OnDeliver: func(at sim.Time) { stamps = append(stamps, at) },
			OnAck:     func(at sim.Time) { stamps = append(stamps, at) },
		})
	}
	fl := f.NewFlowID(ports[0], ports[n-1], 99)
	fl.Send(Message{
		Bytes:     200000, // several bursts
		OnDeliver: func(at sim.Time) { stamps = append(stamps, at) },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return stamps
}

// checkGoldenStamps pins a flat topology as one zero-cost hop: runPattern's
// delivery and ack stamps must equal want, literals (ns) recorded from the
// dedicated flat ingress pipeline before flat flows were routed, and the
// fabric must build no graph links.
func checkGoldenStamps(t *testing.T, name string, cfg Config, want []sim.Time) {
	t.Helper()
	got := runPattern(t, cfg)
	if len(got) != len(want) {
		t.Fatalf("%s: %d stamps %v, want %d %v", name, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: stamp %d = %d, want %d (all: %v)", name, i, got[i], want[i], got)
		}
	}
	if n := len(New(sim.NewEngine(), cfg).LinkStats()); n != 0 {
		t.Errorf("%s: LinkStats reports %d links, want none", name, n)
	}
}

// TestSingleLinkTopologyByteIdentical: a fabric with no topology and one
// with Topo=SingleLink() must both produce, byte for byte, the stamps the
// flat ingress pipeline produced for either.
func TestSingleLinkTopologyByteIdentical(t *testing.T) {
	want := []sim.Time{1047, 1064, 1098, 1166, 1302, 2047, 2064, 2098, 2166, 2302, 28843}
	checkGoldenStamps(t, "nil Topo", Config{}, want)
	checkGoldenStamps(t, "single-link", Config{Topo: SingleLink()}, want)
}

// TestTwoLevelShimMatchesLegacyRackFields: Topo=TwoLevel(2, 750ns) must
// produce the stamps the removed RackSize=2/InterRackExtra=750ns fields
// produced through the flat ingress pipeline.
func TestTwoLevelShimMatchesLegacyRackFields(t *testing.T) {
	checkGoldenStamps(t, "two-level", Config{Topo: TwoLevel(2, 750*time.Nanosecond)},
		[]sim.Time{1047, 1814, 1848, 1916, 2047, 2052, 3564, 3598, 3666, 3802, 29593})
}

// randomGraphTopoConfig draws a fabric config with a random fat-tree or
// dragonfly topology and random (valid) link latencies.
func randomGraphTopoConfig(r *rand.Rand) (Config, error) {
	var cfg Config
	cable := time.Duration(1+r.Intn(2000)) * time.Nanosecond
	down := time.Duration(1+r.Intn(3000)) * time.Nanosecond
	var err error
	if r.Intn(2) == 0 {
		cfg.Topo, err = NewFatTree(FatTreeConfig{K: 2 * (1 + r.Intn(4)), Cable: cable, Down: down})
	} else {
		global := 2*cable + time.Duration(r.Intn(5000))*time.Nanosecond
		cfg.Topo, err = NewDragonfly(DragonflyConfig{
			Groups: 2 + r.Intn(4), Routers: 1 + r.Intn(3), HostsPer: 1 + r.Intn(3),
			Cable: cable, Global: global, Down: down,
		})
	}
	return cfg, err
}

// TestPairLatencyProperties checks the topology invariants the shard
// lookahead derivation relies on, over randomly generated fat-tree and
// dragonfly instances: PairLatency is symmetric, dominates the global
// Lookahead floor, and satisfies the triangle inequality.
func TestPairLatencyProperties(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg, err := randomGraphTopoConfig(r)
		if err != nil {
			t.Logf("seed %d: generator error: %v", seed, err)
			return false
		}
		topo := cfg.Topology()
		floor := cfg.Lookahead()
		h := topo.Hosts()
		for trial := 0; trial < 64; trial++ {
			a, b, c := r.Intn(h), r.Intn(h), r.Intn(h)
			ab, ba := topo.PairLatency(a, b), topo.PairLatency(b, a)
			if ab != ba {
				t.Logf("seed %d %s: PairLatency(%d,%d)=%v != PairLatency(%d,%d)=%v",
					seed, topo.Name(), a, b, ab, b, a, ba)
				return false
			}
			if ab < floor {
				t.Logf("seed %d %s: PairLatency(%d,%d)=%v below floor %v",
					seed, topo.Name(), a, b, ab, floor)
				return false
			}
			ac, bc := topo.PairLatency(a, c), topo.PairLatency(b, c)
			if ac > ab+bc {
				t.Logf("seed %d %s: triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
					seed, topo.Name(), a, c, ac, a, b, b, c, ab+bc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMinPairExtraMatchesPairwise compares MinPairExtra with the minimum
// PairExtra over every host pair of two ranges, for disjoint, adjacent,
// overlapping and nested ranges on each topology kind.
func TestMinPairExtraMatchesPairwise(t *testing.T) {
	extra := 750 * time.Nanosecond
	topos := []*Topology{SingleLink(), TwoLevel(0, extra), TwoLevel(1, extra), TwoLevel(3, extra), TwoLevel(8, extra)}
	for _, spec := range []string{"fat-tree:k=4", "dragonfly:groups=3,routers=2,hosts=2"} {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	r := rand.New(rand.NewSource(1))
	for _, topo := range topos {
		hosts := topo.Hosts()
		if hosts == 0 {
			hosts = 40
		}
		for trial := 0; trial < 300; trial++ {
			aLo, bLo := r.Intn(hosts), r.Intn(hosts)
			aHi, bHi := aLo+1+r.Intn(hosts-aLo), bLo+1+r.Intn(hosts-bLo)
			want := time.Duration(math.MaxInt64)
			for a := aLo; a < aHi; a++ {
				for b := bLo; b < bHi; b++ {
					want = min(want, topo.PairExtra(a, b))
				}
			}
			if got := topo.MinPairExtra(aLo, aHi, bLo, bHi); got != want {
				t.Errorf("%s: MinPairExtra([%d,%d), [%d,%d)) = %v, pairwise %v", topo.Name(), aLo, aHi, bLo, bHi, got, want)
			}
		}
	}
}

// TestRoutesAreValidAndEqualCost walks every generated route and checks
// it is link-connected from the source's switch to the destination host,
// and that its latency sum equals PairExtra — the equal-cost property the
// analytic lookahead derivation assumes for every ECMP candidate.
func TestRoutesAreValidAndEqualCost(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg, err := randomGraphTopoConfig(r)
		if err != nil {
			return false
		}
		topo := cfg.Topology()
		h := topo.Hosts()
		// adjacent switch of each host = From of its down link.
		adj := make([]int, h)
		for i := 0; i < topo.Links(); i++ {
			if l := topo.LinkAt(i); l.To < h {
				adj[l.To] = l.From
			}
		}
		for trial := 0; trial < 64; trial++ {
			src, dst := r.Intn(h), r.Intn(h)
			flowID := r.Uint64() % 64
			route := topo.Route(src, dst, flowID)
			if len(route) == 0 {
				t.Logf("seed %d %s: empty route %d->%d", seed, topo.Name(), src, dst)
				return false
			}
			var sum time.Duration
			at := adj[src]
			for _, id := range route {
				l := topo.LinkAt(id)
				if l.From != at {
					t.Logf("seed %d %s: route %d->%d: link %q starts at node %d, cursor at %d",
						seed, topo.Name(), src, dst, l.Name, l.From, at)
					return false
				}
				at = l.To
				sum += l.Latency
			}
			if at != dst {
				t.Logf("seed %d %s: route %d->%d ends at node %d", seed, topo.Name(), src, dst, at)
				return false
			}
			if sum != topo.PairExtra(src, dst) {
				t.Logf("seed %d %s: route %d->%d (flow %d) latency %v != PairExtra %v",
					seed, topo.Name(), src, dst, flowID, sum, topo.PairExtra(src, dst))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteDeterministicAndSpreading pins the ECMP hash: the same flow
// identity always takes the same path, and distinct identities between a
// cross-edge fat-tree pair spread over more than one spine.
func TestRouteDeterministicAndSpreading(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := 0, topo.Hosts()-1
	spines := map[int]bool{}
	for flowID := uint64(0); flowID < 16; flowID++ {
		r1 := topo.Route(src, dst, flowID)
		r2 := topo.Route(src, dst, flowID)
		if len(r1) != 3 {
			t.Fatalf("cross-edge route length %d, want 3", len(r1))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("flow %d: route not deterministic: %v vs %v", flowID, r1, r2)
			}
		}
		spines[r1[0]] = true
	}
	if len(spines) < 2 {
		t.Fatalf("16 flow identities all hashed onto one spine path")
	}
}

// TestRoutedSingleFlowLatency pins the routed pipeline's uncontended
// timing: store-and-forward at burst granularity over each hop's
// {latency, byteTime} plus the host injection leg.
func TestRoutedSingleFlowLatency(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	f := New(e, Config{Topo: topo})
	ports := make([]*Port, topo.Hosts())
	for i := range ports {
		ports[i] = f.NewPort("h")
	}
	src, dst := ports[0], ports[topo.Hosts()-1] // cross-edge: 3-hop route
	fl := f.NewFlowID(src, dst, 7)
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
	wireBytes := k + (k/MTU)*PacketHeader
	tx := time.Duration(float64(wireBytes) * LinkByteTime)
	cable, down := 500*time.Nanosecond, time.Microsecond
	want := sim.Time(0).
		Add(WRProcess).
		Add(tx).            // host egress serialization
		Add(WireLatency).   // injection propagation
		Add(tx).Add(cable). // edge->spine
		Add(tx).Add(cable). // spine->edge
		Add(tx).Add(down)   // edge->host
	if deliveredAt != want {
		t.Errorf("routed delivery at %v, want %v", deliveredAt, want)
	}
	extra := 2*cable + down
	if wantAck := want.Add(AckLatency + extra); ackAt != wantAck {
		t.Errorf("routed ack at %v, want %v", ackAt, wantAck)
	}
	// The fabric observed the traffic on exactly the route's links.
	stats := f.LinkStats()
	var carried int
	for _, s := range stats {
		if s.Charges > 0 {
			carried++
			if s.Bytes != int64(wireBytes) {
				t.Errorf("link %q carried %d bytes, want %d", s.Link.Name, s.Bytes, wireBytes)
			}
		}
	}
	if carried != 3 {
		t.Errorf("%d links carried traffic, want 3", carried)
	}
}

// TestIncastContendsOnDownLink drives a 3:1 incast into one fat-tree host
// and checks the shared down link serializes the bursts: the last
// delivery must trail an uncontended single-flow delivery by at least the
// two extra bursts' serialization time, and the down link must report
// queueing delay.
func TestIncastContendsOnDownLink(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	run := func(senders int) (sim.Time, []LinkStats) {
		e := sim.NewEngine()
		f := New(e, Config{Topo: topo})
		ports := make([]*Port, topo.Hosts())
		for i := range ports {
			ports[i] = f.NewPort("h")
		}
		const k = 65536
		var last sim.Time
		for s := 0; s < senders; s++ {
			fl := f.NewFlowID(ports[s+2], ports[0], uint64(s))
			fl.Send(Message{Bytes: k, OnDeliver: func(at sim.Time) {
				if at > last {
					last = at
				}
			}})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last, f.LinkStats()
	}
	solo, _ := run(1)
	incast, stats := run(3)
	wireBytes := 65536 + (65536/MTU)*PacketHeader
	tx := time.Duration(float64(wireBytes) * LinkByteTime)
	if incast < solo.Add(2*tx) {
		t.Errorf("3:1 incast last delivery %v; want >= solo %v + 2 bursts %v", incast, solo, 2*tx)
	}
	var queued bool
	for _, s := range stats {
		if s.Link.To == 0 && s.MaxQueue > 0 {
			queued = true
			if p99 := s.QueuePercentile(0.99); p99 == 0 {
				t.Errorf("down link reports MaxQueue %v but zero p99", s.MaxQueue)
			}
		}
	}
	if !queued {
		t.Error("incast produced no queueing delay on the victim's down link")
	}
}
