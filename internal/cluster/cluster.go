// Package cluster composes the simulation substrate into compute nodes: a
// node owns CPU cores (a sim.Resource, so oversubscribed threads stretch
// exactly as on real hardware) and one host channel adapter on the shared
// fabric. The default shape mirrors the paper's Niagara system: 40 cores
// per node on an EDR InfiniBand network.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/ibv"
	"repro/internal/sim"
)

// Config describes the simulated machine.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the CPU core count per node (Niagara: 40).
	CoresPerNode int
	// Fabric selects the interconnect topology; its cost model is the
	// fabric package's constants.
	Fabric fabric.Config
	// Shards is the number of conservative-PDES shards (sim.ShardSet) the
	// simulation is partitioned into; nodes are assigned to shards in
	// contiguous groups and a shard count above Nodes is clamped. 0 or 1
	// runs serial on a single engine. Sharded runs produce byte-identical
	// results to serial ones: the fabric's lookahead (its minimum
	// cross-port latency) bounds every cross-shard interaction.
	Shards int
}

// NiagaraConfig returns the paper's system shape: 40-core nodes on an
// EDR-like fabric.
func NiagaraConfig(nodes int) Config {
	return Config{Nodes: nodes, CoresPerNode: 40}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	if c.CoresPerNode < 1 {
		return fmt.Errorf("cluster: need at least one core per node, got %d", c.CoresPerNode)
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	if c.Shards < 0 {
		return fmt.Errorf("cluster: negative shard count %d", c.Shards)
	}
	return nil
}

// Node is one compute node.
type Node struct {
	ID int
	// Engine is the shard the node's simulation state lives on (the
	// cluster engine when running serial). Procs interacting with the
	// node — ranks, their CQs and timers — must run on this engine.
	Engine *sim.Engine
	CPU    *sim.Resource
	HCA    *ibv.HCA
}

// quantum is the scheduling timeslice for oversubscribed compute: threads
// beyond the core count timeshare in round-robin slices of this length
// instead of running to completion, as a preemptive OS scheduler would.
const quantum = time.Millisecond

// Compute runs d worth of single-core work on the node. Work is consumed
// in scheduler quanta: when more threads are runnable than cores exist,
// they round-robin, so oversubscribed threads all finish within roughly
// one quantum of each other rather than in waves.
func (n *Node) Compute(p *sim.Proc, d time.Duration) {
	for d > 0 {
		slice := min(d, quantum)
		n.CPU.Use(p, slice)
		d -= slice
	}
}

// Cluster is a set of nodes on one fabric. Serial clusters run every node
// on Engine; sharded clusters (Config.Shards > 1) spread contiguous node
// groups across the engines of a sim.ShardSet, with Engine aliasing
// shard 0 for code that only needs a clock.
type Cluster struct {
	Engine *sim.Engine
	Fabric *fabric.Fabric
	Nodes  []*Node
	shards *sim.ShardSet
	cfg    Config
}

// New builds a cluster. It panics on invalid configuration.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	topo := cfg.Fabric.Topology()
	nshard := cfg.Shards
	if nshard < 1 {
		nshard = 1
	}
	if nshard > cfg.Nodes {
		nshard = cfg.Nodes
	}
	shardOf := func(node int) int { return node * nshard / cfg.Nodes }
	if !topo.Flat() {
		// Shard slabs snap to switch boundaries: every host under one
		// edge switch (fat-tree) or in one group (dragonfly) lands on
		// the same shard, so a switch's local traffic — including its
		// link cursors, owned by in-group hosts — never straddles a
		// shard boundary. Group numbering is monotone in host ID, so
		// slabs stay contiguous.
		groups := topo.GroupOf(cfg.Nodes-1) + 1
		if nshard > groups {
			nshard = groups
		}
		shardOf = func(node int) int { return topo.GroupOf(node) * nshard / groups }
	}
	var set *sim.ShardSet
	var e *sim.Engine
	if nshard > 1 {
		set = sim.NewShardSet(shardLookaheadMatrix(cfg, topo, shardOf, nshard))
		e = set.Engine(0)
	} else {
		e = sim.NewEngine()
	}
	f := fabric.New(e, cfg.Fabric)
	c := &Cluster{Engine: e, Fabric: f, shards: set, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		ne := e
		if set != nil {
			ne = set.Engine(shardOf(i))
		}
		c.Nodes = append(c.Nodes, &Node{
			ID:     i,
			Engine: ne,
			CPU:    sim.NewResource(ne, cfg.CoresPerNode),
			HCA:    ibv.NewHCA(ne, f, fmt.Sprintf("node%d", i)),
		})
	}
	return c
}

// shardLookaheadMatrix derives the per-pair shard lookahead matrix from
// the fabric's topology; on a single link every entry is the floor λ. HCA
// ports are created in node order, so port ID equals node ID.
//
// The entry for a shard pair (s, d) lower-bounds every cross-engine post
// from s to d:
//
//   - Direct interactions (flat flows' one hop onto the destination's
//     ingress, control, completions, recycles) are separated by at least
//     the floor plus the pair's topology extra; minimizing the extra over
//     the shards' host slabs (Topology.MinPairExtra) gives
//     λ + minExtra(s, d).
//   - On graph topologies, routed bursts also hop host→link (one wire
//     latency) and link→link (the in-link's latency); relaxing over the
//     topology's adjacency tightens the affected shard pairs to those
//     bounds. Link cursors owned by hosts beyond the node count were
//     never bound to a port engine and run on shard 0 (the fabric's
//     engine), so they relax shard 0's rows.
//
// Every bound is >= λ > 0 (link latencies participate in the floor), so
// the matrix always satisfies the ShardSet contract.
func shardLookaheadMatrix(cfg Config, topo *fabric.Topology, shardOf func(int) int, nshard int) [][]time.Duration {
	la := cfg.Fabric.Lookahead()
	// Shards own contiguous, non-empty host slabs [lo[s], lo[s+1]).
	lo := make([]int, nshard+1)
	lo[nshard] = cfg.Nodes
	for a := cfg.Nodes - 1; a >= 0; a-- {
		lo[shardOf(a)] = a
	}
	m := make([][]time.Duration, nshard)
	for s := range m {
		m[s] = make([]time.Duration, nshard)
		for d := range m[s] {
			m[s][d] = la
			if s != d {
				m[s][d] += topo.MinPairExtra(lo[s], lo[s+1], lo[d], lo[d+1])
			}
		}
	}
	relax := func(s, d int, v time.Duration) {
		if s != d && v < m[s][d] {
			m[s][d] = v
		}
	}
	if !topo.Flat() {
		ownerShard := func(l fabric.Link) int {
			if l.OwnerHost < cfg.Nodes {
				return shardOf(l.OwnerHost)
			}
			return 0
		}
		// Host→first-link hops: a burst leaves host h for any link out
		// of h's adjacent switch one wire latency after injection.
		adjSwitch := make([]int, topo.Hosts())
		for i := 0; i < topo.Links(); i++ {
			if l := topo.LinkAt(i); l.To < topo.Hosts() {
				adjSwitch[l.To] = l.From
			}
		}
		for i := 0; i < topo.Links(); i++ {
			l := topo.LinkAt(i)
			ls := ownerShard(l)
			for h := 0; h < cfg.Nodes; h++ {
				if adjSwitch[h] == l.From {
					relax(shardOf(h), ls, fabric.WireLatency)
				}
			}
		}
		// Link→link hops at each switch, separated by the in-link's
		// propagation latency.
		topo.RelayPairs(func(in, out fabric.Link) {
			relax(ownerShard(in), ownerShard(out), in.Latency)
		})
	}
	return m
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// ShardSet returns the conservative-PDES shard set, or nil for a serial
// cluster.
func (c *Cluster) ShardSet() *sim.ShardSet { return c.shards }

// Run drives the simulation to completion: the shard set when the
// cluster is sharded (workers ≤ 0 selects the default fleet size),
// otherwise the single engine.
func (c *Cluster) Run(workers int) error {
	if c.shards != nil {
		return c.shards.Run(workers)
	}
	return c.Engine.Run()
}
