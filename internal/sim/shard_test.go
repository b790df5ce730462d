package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// This file tests the conservative shard runtime (shard.go) directly at the
// sim layer, below the fabric: a ShardSet must execute any admissible
// workload — one whose cross-shard posts respect the lookahead — with
// per-node event timelines identical to the same workload on a single
// serial engine, for every shard count and worker count. It also pins the
// two loud failure modes: the lookahead-violation panic and the aggregated
// multi-shard deadlock report.

// cascadeLambda is the lookahead every cascade workload respects.
const cascadeLambda = time.Microsecond

// cascade is a deterministic message-cascade workload over N logical
// nodes, each pinned to an engine by the nodeEngine mapping. A node firing
// at time t logs the instant, optionally re-fires locally at the same
// instant (exercising the same-instant ring inside a window), and forwards
// to neighbors at t+λ and t+2λ — and occasionally 900µs out, so forwarded
// events land in every calendar tier. The per-node logs depend only on
// timestamps, never on engine identity, so serial and sharded runs must
// produce byte-identical logs.
type cascade struct {
	engs []*Engine // node -> engine
	logs [][]Time  // node -> fire instants, in fire order
}

type cascadeMsg struct {
	c    *cascade
	node int
	hops int
	echo bool // same-instant local re-fire, not a forwarded hop
}

func fireCascadeMsg(now Time, arg any) {
	m := arg.(*cascadeMsg)
	m.c.on(now, m)
}

func (c *cascade) on(now Time, m *cascadeMsg) {
	c.logs[m.node] = append(c.logs[m.node], now)
	if m.echo || m.hops <= 0 {
		return
	}
	n := len(c.engs)
	src := c.engs[m.node]
	// Same-instant local echo: stays on this engine, fires inside the
	// current window.
	src.AtCall(now, fireCascadeMsg, &cascadeMsg{c: c, node: m.node, echo: true})
	// Forward one hop to the next node, one lookahead out — the tightest
	// admissible cross-shard timestamp (now+λ ≥ Tmin+λ = window end).
	next := (m.node + 1) % n
	src.Post(c.engs[next], now.Add(cascadeLambda), fireCascadeMsg,
		&cascadeMsg{c: c, node: next, hops: m.hops - 1})
	// Every third node also fans out two hops over, two lookaheads out.
	if m.node%3 == 0 {
		far := (m.node + 2) % n
		src.Post(c.engs[far], now.Add(2*cascadeLambda), fireCascadeMsg,
			&cascadeMsg{c: c, node: far, hops: m.hops - 2})
	}
	// Every fifth hop schedules a distant straggler so forwarded events
	// also exercise the far heap and window re-anchoring.
	if m.hops%5 == 0 {
		far := (m.node + 3) % n
		src.Post(c.engs[far], now.Add(900*time.Microsecond), fireCascadeMsg,
			&cascadeMsg{c: c, node: far, hops: 1})
	}
}

// seed schedules the initial wave: one message per node, staggered so
// shards start at unequal local times.
func (c *cascade) seed(nodes, hops int) {
	for i := 0; i < nodes; i++ {
		c.engs[i].AtCall(Time((i+1)*700), fireCascadeMsg,
			&cascadeMsg{c: c, node: i, hops: hops})
	}
}

// runCascadeSerial executes the workload on one engine and returns the
// logs plus the total executed-event count.
func runCascadeSerial(t *testing.T, nodes, hops int) ([][]Time, uint64) {
	t.Helper()
	e := NewEngine()
	c := &cascade{engs: make([]*Engine, nodes), logs: make([][]Time, nodes)}
	for i := range c.engs {
		c.engs[i] = e
	}
	c.seed(nodes, hops)
	if err := e.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return c.logs, e.Events()
}

// uniformLookahead is the n×n lookahead matrix with λ on every pair.
func uniformLookahead(n int, lam time.Duration) [][]time.Duration {
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			m[i][j] = lam
		}
	}
	return m
}

// runCascadeSharded executes the same workload on a ShardSet with node i
// on shard i%shards, under the uniform floor λ.
func runCascadeSharded(t *testing.T, nodes, hops, shards, workers int) ([][]Time, *ShardSet) {
	t.Helper()
	return runCascadeShardedMatrix(t, nodes, hops, workers, uniformLookahead(shards, cascadeLambda))
}

// runCascadeShardedMatrix is runCascadeSharded under an arbitrary
// lookahead matrix, one shard per row.
func runCascadeShardedMatrix(t *testing.T, nodes, hops, workers int, lam [][]time.Duration) ([][]Time, *ShardSet) {
	t.Helper()
	s := NewShardSet(lam)
	shards := len(lam)
	c := &cascade{engs: make([]*Engine, nodes), logs: make([][]Time, nodes)}
	for i := range c.engs {
		c.engs[i] = s.Engine(i % shards)
	}
	c.seed(nodes, hops)
	if err := s.Run(workers); err != nil {
		t.Fatalf("sharded run (%d shards, %d workers): %v", shards, workers, err)
	}
	return c.logs, s
}

func diffCascadeLogs(t *testing.T, label string, want, got [][]Time) {
	t.Helper()
	for node := range want {
		if len(want[node]) != len(got[node]) {
			t.Fatalf("%s: node %d fired %d events, serial fired %d",
				label, node, len(got[node]), len(want[node]))
		}
		for i := range want[node] {
			if want[node][i] != got[node][i] {
				t.Fatalf("%s: node %d fire %d at %v, serial at %v",
					label, node, i, got[node][i], want[node][i])
			}
		}
	}
}

// TestShardSetMatchesSerialEngine is the sim-layer differential test: the
// cascade workload under 2, 4, and 8 shards must produce the exact
// per-node fire timelines of the serial engine, and execute the same
// number of events in total.
func TestShardSetMatchesSerialEngine(t *testing.T) {
	const nodes, hops = 8, 24
	want, wantEvents := runCascadeSerial(t, nodes, hops)
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, s := runCascadeSharded(t, nodes, hops, shards, 0)
			diffCascadeLogs(t, fmt.Sprintf("shards=%d", shards), want, got)
			st := s.Stats()
			var total uint64
			for _, ev := range st.Events {
				total += ev
			}
			if total != wantEvents {
				t.Errorf("executed %d events across shards, serial executed %d", total, wantEvents)
			}
			if st.Windows == 0 {
				t.Errorf("Stats reports zero windows after a multi-shard run")
			}
			if st.CrossPosts == 0 {
				t.Errorf("Stats reports zero cross-shard posts for a cross-shard workload")
			}
		})
	}
}

// TestShardSetWorkerCountIndependence runs the same 4-shard workload with
// 1, 2, and 4 workers: the timelines, the window count, and the per-shard
// event counts must not depend on the fleet size.
func TestShardSetWorkerCountIndependence(t *testing.T) {
	const nodes, hops, shards = 8, 24, 4
	want, _ := runCascadeSerial(t, nodes, hops)
	var refStats ShardStats
	for i, workers := range []int{1, 2, 4} {
		got, s := runCascadeSharded(t, nodes, hops, shards, workers)
		diffCascadeLogs(t, fmt.Sprintf("workers=%d", workers), want, got)
		st := s.Stats()
		if i == 0 {
			refStats = st
			continue
		}
		if st.Windows != refStats.Windows || st.CrossPosts != refStats.CrossPosts {
			t.Errorf("workers=%d: windows/crossposts %d/%d differ from workers=1 %d/%d",
				workers, st.Windows, st.CrossPosts, refStats.Windows, refStats.CrossPosts)
		}
		if st.TminHops != refStats.TminHops || st.WindowsSkipped != refStats.WindowsSkipped || st.Stalls != refStats.Stalls {
			t.Errorf("workers=%d: tminhops/skipped/stalls %d/%d/%d differ from workers=1 %d/%d/%d",
				workers, st.TminHops, st.WindowsSkipped, st.Stalls,
				refStats.TminHops, refStats.WindowsSkipped, refStats.Stalls)
		}
		for sh := range st.Events {
			if st.Events[sh] != refStats.Events[sh] {
				t.Errorf("workers=%d: shard %d executed %d events, workers=1 executed %d",
					workers, sh, st.Events[sh], refStats.Events[sh])
			}
		}
	}
}

// TestShardSetNonUniformMatrixMatchesSerial drives the cascade with an
// honest non-uniform matrix. With node i on shard i%4 of 8 nodes, shard s
// posts to shard (s+1)%4 exactly λ out, to (s+2)%4 exactly 2λ out, and to
// (s+3)%4 900µs out, so λ[s][s+1]=λ, λ[s][s+2]=2λ, λ[s][s+3]=10λ are all
// true per-pair bounds (the closure relays s→s+1→s+3 at 3λ ≤ 900µs).
// Results must stay byte-identical to serial at every worker count, with
// worker-independent stats, and the widened windows must take no more
// hops than the uniform floor does.
func TestShardSetNonUniformMatrixMatchesSerial(t *testing.T) {
	const nodes, hops, shards = 8, 24, 4
	want, _ := runCascadeSerial(t, nodes, hops)
	m := make([][]time.Duration, shards)
	for s := range m {
		m[s] = make([]time.Duration, shards)
		m[s][s] = cascadeLambda
		m[s][(s+1)%shards] = cascadeLambda
		m[s][(s+2)%shards] = 2 * cascadeLambda
		m[s][(s+3)%shards] = 10 * cascadeLambda
	}
	_, uniform := runCascadeSharded(t, nodes, hops, shards, 0)
	var refStats ShardStats
	for i, workers := range []int{1, 2, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		got, s := runCascadeShardedMatrix(t, nodes, hops, workers, m)
		diffCascadeLogs(t, label, want, got)
		st := s.Stats()
		if i == 0 {
			refStats = st
			if u := uniform.Stats(); st.TminHops > u.TminHops {
				t.Errorf("non-uniform matrix took %d hops, uniform floor took %d — widening windows must not add hops",
					st.TminHops, u.TminHops)
			}
			continue
		}
		if st.Windows != refStats.Windows || st.TminHops != refStats.TminHops || st.CrossPosts != refStats.CrossPosts {
			t.Errorf("%s: windows/hops/crossposts %d/%d/%d differ from workers=1 %d/%d/%d",
				label, st.Windows, st.TminHops, st.CrossPosts,
				refStats.Windows, refStats.TminHops, refStats.CrossPosts)
		}
	}
}

// TestShardSetMatrixValidationPanics pins the constructor's matrix
// contract: a square N×N shape, and no off-diagonal entry at or below
// zero, even when every other pair is positive.
func TestShardSetMatrixValidationPanics(t *testing.T) {
	lam := cascadeLambda
	for _, tc := range []struct {
		name string
		m    [][]time.Duration
	}{
		{"wrong-rows", [][]time.Duration{{lam, lam}}},
		{"wrong-cols", [][]time.Duration{{lam}, {lam}}},
		{"below-floor", [][]time.Duration{{lam, lam, lam}, {lam, lam, 0}, {lam, lam, lam}}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewShardSet(%v) did not panic", tc.m)
				}
			}()
			NewShardSet(tc.m)
		})
	}
}

// TestShardSetPairWindowEdge is the per-pair regression for the
// lookahead-violation assert: with λ[0][1] widened to 2λ, the destination
// window extends to seed+2λ, so a post one floor-λ out — legal under a
// uniform floor — now lands inside the open window and must panic loudly,
// while a post exactly at the widened edge stays legal and is delivered.
func TestShardSetPairWindowEdge(t *testing.T) {
	wide := [][]time.Duration{
		{cascadeLambda, 2 * cascadeLambda},
		{2 * cascadeLambda, cascadeLambda},
	}
	t.Run("inside-pair-window-panics", func(t *testing.T) {
		s := NewShardSet(wide)
		e0, e1 := s.Engine(0), s.Engine(1)
		e0.AtCall(Time(1000), func(now Time, _ any) {
			// now+λ clears the floor but sits inside shard 1's
			// widened [seed, seed+2λ) window: exactly the violation the
			// per-pair assert must catch.
			e0.Post(e1, now.Add(cascadeLambda), func(Time, any) {}, nil)
		}, nil)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("post inside the per-pair window did not panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "violates lookahead") {
				t.Fatalf("panic %q does not name the lookahead violation", msg)
			}
		}()
		_ = s.Run(1)
	})
	t.Run("at-pair-edge-delivers", func(t *testing.T) {
		s := NewShardSet(wide)
		e0, e1 := s.Engine(0), s.Engine(1)
		delivered := false
		e0.AtCall(Time(1000), func(now Time, _ any) {
			e0.Post(e1, now.Add(2*cascadeLambda), func(Time, any) { delivered = true }, nil)
		}, nil)
		if err := s.Run(1); err != nil {
			t.Fatalf("run: %v", err)
		}
		if !delivered {
			t.Fatalf("post exactly at the per-pair window edge was not delivered")
		}
	})
}

// TestShardSetLookaheadViolationPanics pins the soundness assert: a
// cross-shard post with a timestamp inside the current window means the
// advertised lookahead is wrong, and the set must panic loudly instead of
// silently corrupting the timeline.
func TestShardSetLookaheadViolationPanics(t *testing.T) {
	s := NewShardSet(uniformLookahead(2, cascadeLambda))
	e0, e1 := s.Engine(0), s.Engine(1)
	e0.AtCall(Time(1000), func(now Time, _ any) {
		// now < now+λ = window end: one lookahead too early.
		e0.Post(e1, now, func(Time, any) {}, nil)
	}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("lookahead-violating post did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "violates lookahead") {
			t.Fatalf("panic %q does not name the lookahead violation", msg)
		}
	}()
	_ = s.Run(1)
}

// TestShardSetConstructorPanics pins the constructor contract: at least
// one shard, and positive lookahead whenever there is more than one.
func TestShardSetConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    [][]time.Duration
	}{
		{"zero-shards", nil},
		{"zero-lookahead", uniformLookahead(2, 0)},
		{"negative-lookahead", uniformLookahead(4, -time.Nanosecond)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewShardSet(%v) did not panic", tc.m)
				}
			}()
			NewShardSet(tc.m)
		})
	}
	// The diagonal is ignored: one shard with zero lookahead is the serial
	// degenerate case and must construct and run.
	s := NewShardSet(uniformLookahead(1, 0))
	ran := false
	s.Engine(0).At(Time(10), func() { ran = true })
	if err := s.Run(1); err != nil || !ran {
		t.Fatalf("single-shard set: err=%v ran=%v", err, ran)
	}
}

// TestShardSetDeadlockAggregatesShards parks one non-daemon proc on every
// shard with nothing to wake it: Run must return a single DeadlockError
// naming all of them, sorted, exactly as the serial engine reports its own
// stuck procs.
func TestShardSetDeadlockAggregatesShards(t *testing.T) {
	const shards = 3
	s := NewShardSet(uniformLookahead(shards, cascadeLambda))
	for i := 0; i < shards; i++ {
		e := s.Engine(i)
		e.Spawn(fmt.Sprintf("stuck-%d", i), func(p *Proc) {
			NewCond(p.Engine()).Wait(p)
		})
	}
	err := s.Run(2)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want DeadlockError", err)
	}
	if len(dl.Procs) != shards {
		t.Fatalf("DeadlockError lists %d procs, want %d: %v", len(dl.Procs), shards, dl.Procs)
	}
	for i, entry := range dl.Procs {
		if want := fmt.Sprintf("stuck-%d", i); !strings.Contains(entry, want) {
			t.Errorf("Procs[%d] = %q, want mention of %q (sorted across shards)", i, entry, want)
		}
	}
}

// TestTimerStopIgnoresMailboxMigratedEvent is the regression test for the
// Timer seq guard against mailbox-migrated events: after a timer's event
// fires, its struct returns to the engine's free list, and the very next
// mailbox drain may re-arm that same struct with a cross-shard post. A
// stale Timer.Stop must see the seq mismatch and refuse to cancel the
// migrated occupant.
func TestTimerStopIgnoresMailboxMigratedEvent(t *testing.T) {
	s := NewShardSet(uniformLookahead(2, cascadeLambda))
	e0, e1 := s.Engine(0), s.Engine(1)

	timerRan := false
	tm := e0.AfterFunc(0, func() { timerRan = true })
	ev := tm.ev
	if !e0.Step() || !timerRan {
		t.Fatalf("timer event did not fire")
	}

	// Cross-shard post from shard 1 into shard 0; the drain below re-arms
	// the recycled struct from e0's free list.
	migrated := false
	e1.Post(e0, Time(5000), func(Time, any) { migrated = true }, nil)
	if !s.drain() {
		t.Fatalf("drain delivered no posts")
	}
	if !ev.queued || ev.seq == tm.seq {
		// The guard is only exercised if the struct really was reused with
		// a fresh identity; fail loudly if free-list behavior changes so
		// this test cannot silently stop testing anything.
		t.Fatalf("recycled event struct was not re-armed by the drain (queued=%v seq=%d timer seq=%d)",
			ev.queued, ev.seq, tm.seq)
	}

	if tm.Stop() {
		t.Fatalf("stale Timer.Stop cancelled a mailbox-migrated event")
	}
	if e0.Pending() != 1 {
		t.Fatalf("migrated event lost: Pending() = %d, want 1", e0.Pending())
	}
	if !e0.Step() || !migrated {
		t.Fatalf("migrated event did not fire after stale Stop")
	}
}

// ticker re-schedules itself every period until limit, logging each
// instant on its own engine.
type ticker struct {
	e      *Engine
	period time.Duration
	limit  Time
	log    []Time
}

func fireTick(now Time, arg any) {
	tk := arg.(*ticker)
	tk.log = append(tk.log, now)
	if next := now.Add(tk.period); next < tk.limit {
		tk.e.AtCall(next, fireTick, tk)
	}
}

// TestShardSetClaimGateAlternatingEngaged is the stress test for the
// claim gate's bound and index sharing one atomic word. Shards 0 and 1
// tick every 50 ns and shard 2 every 100 ns under a 10 ns lookahead, so
// the hops engage 3, 2, 3, 2, ... shards: at every odd multiple of 50 ns
// shard 2's next tick lies beyond its bound. A participant that read the
// gate in a 3-shard hop and won its claim in a later 2-shard hop would
// index past the engaged set; with the packed word its stale CAS fails.
// Every tick must fire exactly once at its instant, and the hop counts
// must not depend on the fleet size.
func TestShardSetClaimGateAlternatingEngaged(t *testing.T) {
	const (
		lam   = 10 * time.Nanosecond
		hops  = 4000
		step  = 50 * time.Nanosecond
		limit = Time(hops * step)
	)
	for _, workers := range []int{2, 3} {
		s := NewShardSet(uniformLookahead(3, lam))
		tks := make([]*ticker, 3)
		for i := range tks {
			period := step
			if i == 2 {
				period = 2 * step
			}
			tks[i] = &ticker{e: s.Engine(i), period: period, limit: limit}
			s.Engine(i).AtCall(0, fireTick, tks[i])
		}
		if err := s.Run(workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, tk := range tks {
			n := int(limit / Time(tk.period))
			if len(tk.log) != n {
				t.Fatalf("workers=%d: shard %d ticked %d times, want %d", workers, i, len(tk.log), n)
			}
			for k, at := range tk.log {
				if want := Time(k) * Time(tk.period); at != want {
					t.Fatalf("workers=%d: shard %d tick %d at %v, want %v", workers, i, k, at, want)
				}
			}
		}
		// Every hop engages at least two shards, so none runs solo. Each
		// 2-shard hop stalls shard 2 except the last, where shard 2 has no
		// tick left.
		st := s.Stats()
		if st.TminHops != hops || st.Windows != hops || st.Stalls != hops/2-1 {
			t.Errorf("workers=%d: hops/windows/stalls = %d/%d/%d, want %d/%d/%d",
				workers, st.TminHops, st.Windows, st.Stalls, hops, hops, hops/2-1)
		}
	}
}
