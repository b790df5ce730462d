package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestNiagaraConfigShape(t *testing.T) {
	cfg := NiagaraConfig(64)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 64 || cfg.CoresPerNode != 40 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 0, CoresPerNode: 1},
		{Nodes: 1, CoresPerNode: 0},
		{Nodes: 1, CoresPerNode: 1, Shards: -1},
		{Nodes: 2, CoresPerNode: 1, Fabric: fabric.Config{Topo: fabric.TwoLevel(1, -time.Nanosecond)}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestNewBuildsNodes(t *testing.T) {
	c := New(NiagaraConfig(3))
	if len(c.Nodes) != 3 {
		t.Fatalf("built %d nodes", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.CPU.Servers() != 40 {
			t.Errorf("node %d has %d cores", i, n.CPU.Servers())
		}
		if n.HCA == nil {
			t.Errorf("node %d missing HCA", i)
		}
	}
	if c.Config().Nodes != 3 {
		t.Errorf("Config() = %+v", c.Config())
	}
}

func TestComputeOversubscription(t *testing.T) {
	// 80 threads of 1 ms on a 40-core node take 2 ms — the paper's
	// 128-partition oversubscription effect in miniature.
	c := New(NiagaraConfig(1))
	node := c.Nodes[0]
	var last sim.Time
	for i := 0; i < 80; i++ {
		c.Engine.Spawn("t", func(p *sim.Proc) {
			node.Compute(p, time.Millisecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if last != sim.Time(2*time.Millisecond) {
		t.Fatalf("80 threads finished at %v, want 2ms", last)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestQuantumTimeslicing(t *testing.T) {
	// 80 threads of 10 ms on 40 cores with a 1 ms quantum: all threads
	// interleave and finish within one quantum of 20 ms, instead of two
	// 10 ms waves.
	c := New(NiagaraConfig(1))
	node := c.Nodes[0]
	var first, last sim.Time
	first = sim.Time(1 << 62)
	for i := 0; i < 80; i++ {
		c.Engine.Spawn("t", func(p *sim.Proc) {
			node.Compute(p, 10*time.Millisecond)
			if p.Now() < first {
				first = p.Now()
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if last != sim.Time(20*time.Millisecond) {
		t.Fatalf("last finish %v, want 20ms (2x stretch)", last)
	}
	if spread := last.Sub(first); spread > quantum {
		t.Fatalf("finish spread %v exceeds one quantum %v (wave scheduling?)", spread, quantum)
	}
}

// TestShardLookaheadMatrixRackTopology pins the shard-pair lookahead
// derivation from the two-level topology: shard pairs whose contiguous
// node slabs cover disjoint rack ranges interact only across racks and
// widen by the inter-rack extra; pairs sharing a rack keep the global
// floor; and a single-link fabric's matrix is the floor everywhere.
func TestShardLookaheadMatrixRackTopology(t *testing.T) {
	cfg := NiagaraConfig(8)
	cfg.Shards = 4
	la := cfg.Fabric.Lookahead()

	// Flat fabric: the floor everywhere.
	c := New(cfg)
	set := c.ShardSet()
	if set == nil {
		t.Fatal("sharded cluster returned nil ShardSet")
	}
	if got := set.PairLookahead(0, 3); got != la {
		t.Fatalf("flat fabric pair lookahead = %v, want floor %v", got, la)
	}

	// Two nodes per rack, one rack per shard: every shard pair is
	// rack-disjoint and widens.
	extra := 750 * time.Nanosecond
	cfg.Fabric.Topo = fabric.TwoLevel(2, extra)
	set = New(cfg).ShardSet()
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			want := la
			if s != d {
				want = la + extra
			}
			if got := set.PairLookahead(s, d); got != want {
				t.Errorf("rack-per-shard λ[%d][%d] = %v, want %v", s, d, got, want)
			}
		}
	}

	// Racks of 3 straddle shard boundaries: shards 0 (nodes 0-1, rack 0)
	// and 1 (nodes 2-3, racks 0-1) overlap in rack 0 and keep the floor,
	// while shards 0 and 3 (nodes 6-7, rack 2) are disjoint and widen.
	cfg.Fabric.Topo = fabric.TwoLevel(3, extra)
	set = New(cfg).ShardSet()
	if got := set.PairLookahead(0, 1); got != la {
		t.Errorf("overlapping racks λ[0][1] = %v, want floor %v", got, la)
	}
	if got := set.PairLookahead(0, 3); got != la+extra {
		t.Errorf("disjoint racks λ[0][3] = %v, want %v", got, la+extra)
	}
}

// pairwiseLookaheadMatrix is the shard lookahead matrix derived pair by
// pair: the direct pass minimizes the topology extra over every node pair
// on distinct shards, then the graph passes relax as shardLookaheadMatrix
// does. It is the reference the slab derivation must reproduce.
func pairwiseLookaheadMatrix(cfg Config, topo *fabric.Topology, shardOf func(int) int, nshard int) [][]time.Duration {
	la := cfg.Fabric.Lookahead()
	m := make([][]time.Duration, nshard)
	for s := range m {
		m[s] = make([]time.Duration, nshard)
		for d := range m[s] {
			if s == d {
				m[s][d] = la
			} else {
				m[s][d] = -1 // unset; every pair is filled by the direct pass
			}
		}
	}
	relax := func(s, d int, v time.Duration) {
		if s != d && (m[s][d] < 0 || v < m[s][d]) {
			m[s][d] = v
		}
	}
	for a := 0; a < cfg.Nodes; a++ {
		sa := shardOf(a)
		for b := 0; b < cfg.Nodes; b++ {
			if sb := shardOf(b); sb != sa {
				relax(sa, sb, la+topo.PairExtra(a, b))
			}
		}
	}
	if !topo.Flat() {
		ownerShard := func(l fabric.Link) int {
			if l.OwnerHost < cfg.Nodes {
				return shardOf(l.OwnerHost)
			}
			return 0
		}
		adjSwitch := make([]int, topo.Hosts())
		for i := 0; i < topo.Links(); i++ {
			if l := topo.LinkAt(i); l.To < topo.Hosts() {
				adjSwitch[l.To] = l.From
			}
		}
		for i := 0; i < topo.Links(); i++ {
			l := topo.LinkAt(i)
			for h := 0; h < cfg.Nodes; h++ {
				if adjSwitch[h] == l.From {
					relax(shardOf(h), ownerShard(l), fabric.WireLatency)
				}
			}
		}
		topo.RelayPairs(func(in, out fabric.Link) {
			relax(ownerShard(in), ownerShard(out), in.Latency)
		})
	}
	return m
}

// TestShardLookaheadMatrixMatchesPairwise checks that the matrix New
// hands the shard set, whose direct pass runs per shard pair over host
// slabs (Topology.MinPairExtra), equals the node-pair derivation exactly,
// for every topology kind, for racks that straddle slab boundaries and
// for node counts the shard count does not divide.
func TestShardLookaheadMatrixMatchesPairwise(t *testing.T) {
	extra := 750 * time.Nanosecond
	mustParse := func(spec string) *fabric.Topology {
		topo, err := fabric.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	flatNodes := []int{9, 13, 50, 101, 203}
	for _, tc := range []struct {
		name  string
		topo  *fabric.Topology
		nodes []int
	}{
		{"single-link", fabric.SingleLink(), flatNodes},
		{"two-level:rack=0", fabric.TwoLevel(0, extra), flatNodes},
		{"two-level:rack=1", fabric.TwoLevel(1, extra), flatNodes},
		{"two-level:rack=3", fabric.TwoLevel(3, extra), flatNodes},
		{"two-level:rack=8", fabric.TwoLevel(8, extra), flatNodes},
		{"two-level:rack=8,extra=0", fabric.TwoLevel(8, 0), flatNodes},
		{"two-level:rack=64", fabric.TwoLevel(64, extra), flatNodes},
		{"fat-tree:k=4", mustParse("fat-tree:k=4"), []int{5, 7, 8}},
		{"fat-tree:k=8", mustParse("fat-tree:k=8"), []int{9, 27, 30, 32}},
		{"dragonfly", mustParse("dragonfly"), []int{17, 50, 71, 72}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, nodes := range tc.nodes {
				for _, shards := range []int{2, 3, 4, 7, 8} {
					cfg := NiagaraConfig(nodes)
					cfg.Fabric.Topo = tc.topo
					cfg.Shards = shards
					c := New(cfg)
					set := c.ShardSet()
					if set == nil {
						continue
					}
					nshard := set.Shards()
					shardOfEngine := map[*sim.Engine]int{}
					for s := 0; s < nshard; s++ {
						shardOfEngine[set.Engine(s)] = s
					}
					shardOf := func(node int) int { return shardOfEngine[c.Nodes[node].Engine] }
					want := pairwiseLookaheadMatrix(cfg, tc.topo, shardOf, nshard)
					got := make([][]time.Duration, nshard)
					for s := range got {
						got[s] = make([]time.Duration, nshard)
						for d := range got[s] {
							got[s][d] = set.PairLookahead(s, d)
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("nodes=%d shards=%d (%d engaged): matrix\n%v\npairwise\n%v", nodes, shards, nshard, got, want)
					}
				}
			}
		})
	}
}

// TestRackTopologyShardedMatchesSerial is the cluster-level differential
// for the per-pair path: a rack topology (which both stretches cross-rack
// interactions in the cost model and hands the shard runtime a non-uniform
// lookahead matrix) and the two graph topologies, whose flows contend on
// per-link cursors, must leave sharded timing and every link's counters
// byte-identical to serial at any shard and worker count.
func TestRackTopologyShardedMatchesSerial(t *testing.T) {
	// Every topology has 8 hosts. On the rack topology each node sends to
	// its neighbour two racks over, so flows cross both rack and shard
	// boundaries; the graph topologies run incast (hosts 1..7 into host 0)
	// and a permutation (host i to host i^1) at once.
	type flow struct{ src, dst int }
	var rack, graph []flow
	for i := 0; i < 8; i++ {
		rack = append(rack, flow{i, (i + 4) % 8})
		graph = append(graph, flow{i, i ^ 1})
		if i > 0 {
			graph = append(graph, flow{i, 0})
		}
	}
	for _, tc := range []struct {
		spec  string
		topo  func() (*fabric.Topology, error)
		flows []flow
	}{
		{"two-level", func() (*fabric.Topology, error) { return fabric.TwoLevel(2, 750*time.Nanosecond), nil }, rack},
		{"fat-tree:k=4", func() (*fabric.Topology, error) { return fabric.ParseTopology("fat-tree:k=4") }, graph},
		{"dragonfly:groups=4,routers=2,hosts=1", func() (*fabric.Topology, error) {
			return fabric.ParseTopology("dragonfly:groups=4,routers=2,hosts=1")
		}, graph},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			// run returns each node's compute end, each flow's delivery
			// stamp and the fabric's per-link counters. A delivery slot is
			// written only on its destination's engine, so sharded writes
			// never share a slot.
			run := func(shards, workers int) ([]sim.Time, []sim.Time, []fabric.LinkStats) {
				topo, err := tc.topo()
				if err != nil {
					t.Fatal(err)
				}
				cfg := NiagaraConfig(8)
				cfg.CoresPerNode = 2
				cfg.Fabric.Topo = topo
				cfg.Shards = shards
				c := New(cfg)
				ends := make([]sim.Time, cfg.Nodes)
				for i, n := range c.Nodes {
					i, n := i, n
					n.Engine.Spawn("load", func(p *sim.Proc) {
						n.Compute(p, 5*time.Microsecond)
						ends[i] = p.Now()
					})
				}
				delivered := make([]sim.Time, len(tc.flows))
				for i, f := range tc.flows {
					i := i
					fl := c.Fabric.NewFlow(c.Nodes[f.src].HCA.Port(), c.Nodes[f.dst].HCA.Port())
					fl.Send(fabric.Message{Bytes: 8192, OnDeliver: func(at sim.Time) { delivered[i] = at }})
				}
				if err := c.Run(workers); err != nil {
					t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
				}
				for i, at := range delivered {
					if at == 0 {
						t.Fatalf("shards=%d workers=%d: flow %d never delivered", shards, workers, i)
					}
				}
				return ends, delivered, c.Fabric.LinkStats()
			}
			wantEnds, wantDelivered, wantLinks := run(1, 1)
			// A graph topology has per-link counters, and incast must queue
			// on some link, or the comparison below checks no contention.
			queued := false
			for _, ls := range wantLinks {
				queued = queued || ls.MaxQueue > 0
			}
			if len(wantLinks) > 0 && !queued {
				t.Fatal("no link queued under incast")
			}
			for _, shards := range []int{2, 4, 8} {
				for _, workers := range []int{1, 2} {
					ends, delivered, links := run(shards, workers)
					if !reflect.DeepEqual(ends, wantEnds) {
						t.Fatalf("shards=%d workers=%d: node ends %v, serial %v", shards, workers, ends, wantEnds)
					}
					if !reflect.DeepEqual(delivered, wantDelivered) {
						t.Fatalf("shards=%d workers=%d: deliveries %v, serial %v", shards, workers, delivered, wantDelivered)
					}
					if !reflect.DeepEqual(links, wantLinks) {
						t.Fatalf("shards=%d workers=%d: link stats\n%+v\nserial\n%+v", shards, workers, links, wantLinks)
					}
				}
			}
		})
	}
}

// TestFastPaceShardedMatchesSerial drives multi-burst messages whose
// bursts are paced faster than the pair latency across shard boundaries:
// on a two-level fabric with one node per rack and a 20 µs extra, a 64 KiB
// burst leaves every ~9.2 µs against a 21 µs wire. Every message must be
// delivered and acked exactly once, at the pinned serial stamps, and the
// stamps at 2 and 4 shards must equal the serial run's.
func TestFastPaceShardedMatchesSerial(t *testing.T) {
	const nodes, peers, size = 8, 2, 256 << 10
	offsets := [peers]int{1, 4}
	topo := fabric.TwoLevel(1, 20*time.Microsecond)
	burst := fabric.BurstBytes
	pace := time.Duration(float64(burst) * fabric.PerQPByteTime)
	for _, off := range offsets {
		if lat := topo.PairLatency(0, off); pace >= lat {
			t.Fatalf("burst pacing %v is not shorter than the pair latency %v", pace, lat)
		}
	}
	// Per peer slot, every node's serial delivery and ack stamps.
	wantD := [peers]sim.Time{60624, 66281}
	wantA := [peers]sim.Time{81624, 87281}
	// run returns, per source node and peer slot, the delivery stamp and
	// the ack stamp. A delivery slot is written only on its destination's
	// engine and an ack slot only on its source's, so sharded writes never
	// share a slot.
	run := func(shards int) (delivered, acked [nodes][peers][]sim.Time) {
		cfg := NiagaraConfig(nodes)
		cfg.Fabric.Topo = topo
		cfg.Shards = shards
		c := New(cfg)
		for src := 0; src < nodes; src++ {
			for k, off := range offsets {
				src, k := src, k
				dst := (src + off) % nodes
				fl := c.Fabric.NewFlowID(c.Nodes[src].HCA.Port(), c.Nodes[dst].HCA.Port(), uint64(k))
				fl.Send(fabric.Message{
					Bytes:     size,
					OnDeliver: func(at sim.Time) { delivered[src][k] = append(delivered[src][k], at) },
					OnAck:     func(at sim.Time) { acked[src][k] = append(acked[src][k], at) },
				})
			}
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return delivered, acked
	}
	for _, shards := range []int{1, 2, 4} {
		gotD, gotA := run(shards)
		for src := range gotD {
			for k := range gotD[src] {
				if len(gotD[src][k]) != 1 || gotD[src][k][0] != wantD[k] ||
					len(gotA[src][k]) != 1 || gotA[src][k][0] != wantA[k] {
					t.Fatalf("shards=%d: node %d peer %d delivered %v acked %v, want [%v] [%v]",
						shards, src, k, gotD[src][k], gotA[src][k], wantD[k], wantA[k])
				}
			}
		}
	}
}
