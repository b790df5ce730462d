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
	"repro/internal/trace"
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
// sharded over the verbs transport under every strategy, and requires
// identical per-iteration observations: the conservative shard runtime
// must not change a single timestamp.
func TestShardedP2PMatchesSerial(t *testing.T) {
	for _, strat := range shardStrategies {
		t.Run("verbs/"+strat.name, func(t *testing.T) {
			cfg := GridConfig{
				Pattern:         P2P,
				Threads:         8,
				Bytes:           1 << 20,
				Compute:         200 * time.Microsecond,
				NoisePct:        4,
				JitterPerThread: 2 * time.Microsecond,
				Warmup:          2,
				Iters:           6,
				Opts:            strat.opts,
			}
			serial, err := RunGrid(cfg)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			sharded, _, err := runGrid(cfg, 2)
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
	base := GridConfig{
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
	serial, err := RunGrid(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, st, err := runGrid(base, shards)
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

// TestShardedControlTieMatchesSerial pins same-instant control arrivals:
// in round 2 of this wavefront ranks 1 and 2 send their part.credit to
// rank 0 at the same instant, so both arrive at rank 0's port together.
// Their delivery order must not follow the engines' event order, which
// differs between a serial run and a sharded one, so every iteration time
// must match serial at 2 and 4 shards.
func TestShardedControlTieMatchesSerial(t *testing.T) {
	base := GridConfig{
		GridX:    2,
		GridY:    2,
		Threads:  8,
		Bytes:    256 << 10,
		Compute:  20 * time.Microsecond,
		NoisePct: 4,
		Warmup:   2,
		Iters:    16,
		Opts:     core.Options{Strategy: core.StrategyTimerPLogGP},
		Arrival: &trace.ArrivalPattern{
			Kind:   trace.PatternUniform,
			Seed:   5,
			Spread: 2 * time.Millisecond,
		},
	}
	serial, err := RunGrid(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, _, err := runGrid(base, shards)
			if err != nil {
				t.Fatal(err)
			}
			compareGridRuns(t, "sharded", serial, sharded)
		})
	}
}

// TestShardedHaloMatchesSerial runs the halo exchange on a 2x2 grid at 2
// and 4 shards against the serial oracle: iteration times, per-rank buffer
// digests, and every send's adaptive telemetry must match.
func TestShardedHaloMatchesSerial(t *testing.T) {
	base := GridConfig{
		Pattern:  Halo,
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
	serial, err := RunGrid(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		sharded, _, err := runGrid(base, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		compareGridRuns(t, fmt.Sprintf("shards=%d", shards), serial, sharded)
	}
}

// TestShardedGetRendezvousDigest runs baseline transfers whose 64 KiB
// partitions take the active-message layer's get rendezvous, so every
// partition is an RDMA READ. The READ copies the responder's bytes when the
// response lands, on the requester's engine, so each rank's receive-buffer
// digest must equal the one its senders' patterns give, serially and at
// 2, 4 and 8 shards.
func TestShardedGetRendezvousDigest(t *testing.T) {
	base := GridConfig{
		GridX:   4,
		GridY:   2,
		Threads: 4,
		Bytes:   256 << 10,
		Compute: 20 * time.Microsecond,
		Warmup:  1,
		Iters:   2,
		Opts:    core.Options{Strategy: core.StrategyBaseline},
	}
	// Each receive holds the pattern its sender filled; digest them in the
	// receiver's init order, as RunGrid does.
	want := make([]uint64, base.GridX*base.GridY)
	buf := make([]byte, base.Bytes)
	for id := range want {
		x, y := id%base.GridX, id/base.GridX
		sum := uint64(14695981039346656037)
		for _, l := range gridPatterns[Sweep3D].links {
			nx, ny := x+l.dx, y+l.dy
			if l.send || nx < 0 || nx >= base.GridX || ny < 0 || ny >= base.GridY {
				continue
			}
			fillRankBuf(buf, ny*base.GridX+nx, l.tag)
			sum = fnvWords(sum, buf)
		}
		want[id] = sum
	}
	for _, shards := range []int{1, 2, 4, 8} {
		res, _, err := runGrid(base, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for id, sum := range res.BufferSums {
			if sum != want[id] {
				t.Errorf("shards=%d: rank %d receive digest %#x, want %#x", shards, id, sum, want[id])
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
	base := GridConfig{
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
	serial, err := RunGrid(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, _, err := runGrid(base, shards)
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
	w, engines, err := newWorld(clCfg)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(src, round, i int) uint64 { return uint64(src)<<32 | uint64(round)<<16 | uint64(i) }
	done = make([][]sim.Time, nodes)
	bad = make([]int, nodes)
	err = w.Run(func(p *sim.Proc, r *mpi.Rank) {
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
	base := GridConfig{
		Pattern: P2P,
		Threads: 8,
		Bytes:   512 << 10,
		Compute: 100 * time.Microsecond,
		Warmup:  1,
		Iters:   4,
		Opts:    core.Options{Strategy: core.StrategyPLogGP},
	}
	def, err := RunGrid(base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range []int{0, 2} {
		cfg := base
		cfg.Topo = "single-link"
		got, _, err := runGrid(cfg, shards)
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
