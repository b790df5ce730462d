package bench

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// shardStrategies are the aggregation strategies every differential test
// covers, mirroring the experiment tables.
var shardStrategies = []struct {
	name string
	opts core.Options
}{
	{"baseline", core.Options{Strategy: core.StrategyBaseline}},
	{"ploggp", core.Options{Strategy: core.StrategyPLogGP}},
	{"timer", core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 3 * time.Millisecond}},
}

// TestShardedP2PMatchesSerial runs the point-to-point benchmark serial and
// sharded across every provider and strategy, and requires identical
// per-iteration observations: the conservative shard runtime must not
// change a single timestamp. (The shm provider places both ranks on one
// node, so its shard count clamps to 1 — the run still exercises the
// sharded world plumbing end to end.)
func TestShardedP2PMatchesSerial(t *testing.T) {
	for _, provider := range []string{"verbs", "ucx", "shm"} {
		for _, strat := range shardStrategies {
			t.Run(provider+"/"+strat.name, func(t *testing.T) {
				cfg := P2PConfig{
					Parts:           8,
					Bytes:           1 << 20,
					Compute:         200 * time.Microsecond,
					NoisePct:        4,
					JitterPerThread: 2 * time.Microsecond,
					Warmup:          2,
					Iters:           6,
					Opts:            strat.opts,
					Provider:        provider,
				}
				serial, err := RunP2P(cfg)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				cfg.Shards = 2
				sharded, err := RunP2P(cfg)
				if err != nil {
					t.Fatalf("sharded: %v", err)
				}
				if serial.FabricMessages != sharded.FabricMessages {
					t.Errorf("fabric messages serial %d != sharded %d", serial.FabricMessages, sharded.FabricMessages)
				}
				for i := range serial.IterTimes {
					if serial.IterTimes[i] != sharded.IterTimes[i] {
						t.Errorf("iter %d: IterTimes serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
					}
					if serial.LastLatency[i] != sharded.LastLatency[i] {
						t.Errorf("iter %d: LastLatency serial %v != sharded %v", i, serial.LastLatency[i], sharded.LastLatency[i])
					}
				}
			})
		}
	}
}

// sweepWindowCeiling bounds the fleet dispatch windows of the 2-shard
// sweep below. Skip-ahead runs it in a handful of windows over a few
// hundred Tmin hops; a fall back to a λ-march dispatches once per hop and
// blows through the ceiling.
const sweepWindowCeiling = 40

// TestShardedSweepMatchesSerial runs the Sweep3D wavefront on an 8-node
// grid at 2, 4, and 8 shards and requires per-iteration times identical to
// the serial run — the multi-node case where every shard hosts a distinct
// subset of ranks and all traffic between them crosses shard boundaries.
// At 2 shards it also gates skip-ahead with sweepWindowCeiling.
func TestShardedSweepMatchesSerial(t *testing.T) {
	base := SweepConfig{
		GridX:    4,
		GridY:    2,
		Threads:  4,
		Bytes:    256 << 10,
		Compute:  50 * time.Microsecond,
		NoisePct: 10,
		Warmup:   1,
		Iters:    3,
		Opts:     core.Options{Strategy: core.StrategyPLogGP},
	}
	serial, err := RunSweep(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := base
			cfg.Shards = shards
			sharded, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.IterTimes) != len(sharded.IterTimes) {
				t.Fatalf("iteration counts differ: serial %d sharded %d", len(serial.IterTimes), len(sharded.IterTimes))
			}
			for i := range serial.IterTimes {
				if serial.IterTimes[i] != sharded.IterTimes[i] {
					t.Errorf("iter %d: serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
				}
			}
			if shards == 2 {
				st := sharded.ShardStats
				if st == nil {
					t.Fatal("sharded run reported no shard stats")
				}
				if st.Windows > sweepWindowCeiling {
					t.Errorf("%d dispatch windows over %d Tmin hops, above the ceiling of %d",
						st.Windows, st.TminHops, sweepWindowCeiling)
				}
			}
		})
	}
}

// TestShardedHaloMatchesSerial runs the halo exchange on a 2x2 grid at 2
// and 4 shards against the serial oracle.
func TestShardedHaloMatchesSerial(t *testing.T) {
	base := HaloConfig{
		GridX:    2,
		GridY:    2,
		Threads:  4,
		Bytes:    128 << 10,
		Compute:  50 * time.Microsecond,
		NoisePct: 5,
		Warmup:   1,
		Iters:    3,
		Opts:     core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 100 * time.Microsecond},
	}
	serial, err := RunHalo(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		sharded, err := RunHalo(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range serial.IterTimes {
			if serial.IterTimes[i] != sharded.IterTimes[i] {
				t.Errorf("shards=%d iter %d: serial %v != sharded %v", shards, i, serial.IterTimes[i], sharded.IterTimes[i])
			}
		}
	}
}

// TestShardedFatTreeSweepMatchesSerial drives the full MPI stack over a
// multi-switch fabric: the Sweep3D wavefront on a fat-tree whose 8 hosts
// exactly fill the topology, serial versus sharded. With a graph
// topology the shard slabs snap to edge-switch boundaries and every
// cross-switch message is charged per link, so this pins the per-hop
// arbitration to the canonical-order discipline end to end — timestamps
// and final receive-buffer digests must not move.
func TestShardedFatTreeSweepMatchesSerial(t *testing.T) {
	base := SweepConfig{
		GridX:    4,
		GridY:    2,
		Threads:  4,
		Bytes:    256 << 10,
		Compute:  50 * time.Microsecond,
		NoisePct: 10,
		Warmup:   1,
		Iters:    3,
		Opts:     core.Options{Strategy: core.StrategyPLogGP},
		Topo:     "fat-tree:k=4",
	}
	serial, err := RunSweep(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				cfg := base
				cfg.Shards = shards
				cfg.Workers = workers
				sharded, err := RunSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range serial.IterTimes {
					if serial.IterTimes[i] != sharded.IterTimes[i] {
						t.Errorf("iter %d: serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
					}
				}
				for r := range serial.BufferSums {
					if serial.BufferSums[r] != sharded.BufferSums[r] {
						t.Errorf("rank %d: buffer digest serial %#x != sharded %#x", r, serial.BufferSums[r], sharded.BufferSums[r])
					}
				}
			})
		}
	}
}

// stampRing runs a 4-rank ring of partitioned transfers (rank i sends to
// i+1). Each sender thread stamps its partition and calls Pready; right
// after Psend.Wait the sender overwrites every stamp, with no barrier in
// between. Non-inline WRs read their payload when it lands, so this is
// only correct because a send completes after its placement. Each rank
// reports, per round, the instant its Precv.Wait returned and how many
// received stamps were wrong.
func stampRing(t *testing.T, opts core.Options, shards int) (done [][]sim.Time, bad []int) {
	t.Helper()
	const (
		nodes  = 4
		parts  = 8
		part   = 4 << 10 // eager zero-copy for the baseline
		rounds = 6
	)
	clCfg := cluster.NiagaraConfig(nodes)
	clCfg.Shards = shards
	w := mpi.NewWorld(mpi.Config{Cluster: clCfg})
	engines := make([]*core.Engine, nodes)
	for i := range engines {
		eng, err := core.NewEngine(w.Rank(i), "")
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	stamp := func(src, round, i int) uint64 { return uint64(src)<<32 | uint64(round)<<16 | uint64(i) }
	done = make([][]sim.Time, nodes)
	bad = make([]int, nodes)
	err := w.Run(func(p *sim.Proc, r *mpi.Rank) {
		id := r.ID()
		src := (id + nodes - 1) % nodes
		sbuf, rbuf := make([]byte, parts*part), make([]byte, parts*part)
		ps, err := engines[id].PsendInit(p, sbuf, parts, (id+1)%nodes, 0, opts)
		if err != nil {
			panic(err)
		}
		pr, err := engines[id].PrecvInit(p, rbuf, parts, src, 0, opts)
		if err != nil {
			panic(err)
		}
		g := sim.NewGroup(p.Engine())
		round := 0
		threads := make([]func(*sim.Proc), parts)
		for i := range threads {
			i := i
			threads[i] = func(tp *sim.Proc) {
				defer g.Done()
				tp.Sleep(time.Duration(i*(id+1)) * 300 * time.Nanosecond)
				binary.LittleEndian.PutUint64(sbuf[i*part:], stamp(id, round, i))
				if err := ps.Pready(tp, i); err != nil {
					panic(err)
				}
			}
		}
		for ; round < rounds; round++ {
			if err := pr.Start(p); err != nil {
				panic(err)
			}
			if err := ps.Start(p); err != nil {
				panic(err)
			}
			for i := range threads {
				g.Add(1)
				p.Engine().Spawn("thread", threads[i])
			}
			g.Wait(p)
			if err := pr.Wait(p); err != nil {
				panic(err)
			}
			done[id] = append(done[id], p.Now())
			for i := 0; i < parts; i++ {
				if binary.LittleEndian.Uint64(rbuf[i*part:]) != stamp(src, round, i) {
					bad[id]++
				}
			}
			if err := ps.Wait(p); err != nil {
				panic(err)
			}
			for i := 0; i < parts; i++ {
				binary.LittleEndian.PutUint64(sbuf[i*part:], ^stamp(id, round, i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return done, bad
}

// TestShardedStampRewriteAfterWait is the regression test for placement
// reading the sender's memory from the destination shard: the stamp ring
// must see every stamp intact and match the serial run at 2 and 4 shards
// (run it under -race to check the ordering, not just the values).
func TestShardedStampRewriteAfterWait(t *testing.T) {
	for _, strat := range shardStrategies {
		t.Run(strat.name, func(t *testing.T) {
			serialDone, serialBad := stampRing(t, strat.opts, 0)
			for _, shards := range []int{2, 4} {
				done, bad := stampRing(t, strat.opts, shards)
				if !reflect.DeepEqual(done, serialDone) || !reflect.DeepEqual(bad, serialBad) {
					t.Errorf("shards=%d: done %v bad %v, serial done %v bad %v", shards, done, bad, serialDone, serialBad)
				}
			}
			for id, n := range serialBad {
				if n != 0 {
					t.Errorf("rank %d received %d wrong stamps", id, n)
				}
			}
		})
	}
}

// TestShardedSingleLinkTopoMatchesDefault pins single-link parity at the
// bench layer: an explicit -topo single-link run is byte-identical to the
// default fabric, serial and sharded.
func TestShardedSingleLinkTopoMatchesDefault(t *testing.T) {
	base := P2PConfig{
		Parts:   8,
		Bytes:   512 << 10,
		Compute: 100 * time.Microsecond,
		Warmup:  1,
		Iters:   4,
		Opts:    core.Options{Strategy: core.StrategyPLogGP},
	}
	def, err := RunP2P(base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range []int{0, 2} {
		cfg := base
		cfg.Topo = "single-link"
		cfg.Shards = shards
		got, err := RunP2P(cfg)
		if err != nil {
			t.Fatalf("single-link shards=%d: %v", shards, err)
		}
		if got.FabricMessages != def.FabricMessages {
			t.Errorf("shards=%d: fabric messages %d != default %d", shards, got.FabricMessages, def.FabricMessages)
		}
		for i := range def.IterTimes {
			if def.IterTimes[i] != got.IterTimes[i] || def.LastLatency[i] != got.LastLatency[i] {
				t.Errorf("shards=%d iter %d: (%v, %v) != default (%v, %v)", shards, i,
					got.IterTimes[i], got.LastLatency[i], def.IterTimes[i], def.LastLatency[i])
			}
		}
	}
}
