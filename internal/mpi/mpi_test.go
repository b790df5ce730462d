package mpi

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/ibv"
	"repro/internal/sim"
)

func twoNodeWorld() *World {
	return NewWorld(Config{Cluster: cluster.NiagaraConfig(2)})
}

func TestWorldShape(t *testing.T) {
	w := NewWorld(Config{Cluster: cluster.NiagaraConfig(4), RanksPerNode: 2})
	if w.Size() != 8 {
		t.Fatalf("Size = %d, want 8", w.Size())
	}
	for i := 0; i < 8; i++ {
		r := w.Rank(i)
		if r.ID() != i {
			t.Errorf("rank %d has ID %d", i, r.ID())
		}
		if r.Node().ID != i/2 {
			t.Errorf("rank %d on node %d, want %d", i, r.Node().ID, i/2)
		}
		if r.World() != w {
			t.Errorf("rank %d world mismatch", i)
		}
	}
}

func TestRunExecutesEveryRank(t *testing.T) {
	w := NewWorld(Config{Cluster: cluster.NiagaraConfig(3), RanksPerNode: 2})
	seen := make([]bool, w.Size())
	err := w.Run(func(p *sim.Proc, r *Rank) {
		seen[r.ID()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("rank %d body never ran", i)
		}
	}
}

func TestCtrlRoundTrip(t *testing.T) {
	w := twoNodeWorld()
	var got []string
	w.Rank(1).HandleCtrl("ping", func(from int, data any) {
		got = append(got, data.(string))
		if from != 0 {
			t.Errorf("from = %d", from)
		}
	})
	err := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.SendCtrl(1, "ping", "hello")
			r.SendCtrl(1, "ping", "world")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "hello" || got[1] != "world" {
		t.Fatalf("got %v", got)
	}
}

func TestCtrlUnknownKindPanics(t *testing.T) {
	// The panic happens in an event callback, which unwinds Engine.Run
	// directly (only proc panics become errors).
	w := twoNodeWorld()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "no handler") {
			t.Fatalf("recover() = %v", r)
		}
	}()
	_ = w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.SendCtrl(1, "no-such-kind", nil)
		}
	})
}

// TestOneWayCtrlSteadyStateZeroAllocs sends 10k control messages one way,
// as the barrier and credit traffic of a one-directional job does: once
// warm, a send allocates nothing. The port's control record is the
// message's only record; fabric's TestControlRecordsStayBounded bounds its
// free lists.
func TestOneWayCtrlSteadyStateZeroAllocs(t *testing.T) {
	w := twoNodeWorld()
	got := 0
	w.Rank(0).HandleCtrl("oneway", func(int, any) { got++ })
	allocs := -1.0
	err := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() != 1 {
			return
		}
		send := func() {
			r.SendCtrl(0, "oneway", nil)
			p.Sleep(2 * fabric.CtrlLatency)
		}
		send()
		allocs = testing.AllocsPerRun(10000, send)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10002 { // warm-up, AllocsPerRun's own warm-up call, 10k runs
		t.Fatalf("delivered %d messages, want 10002", got)
	}
	if allocs != 0 {
		t.Errorf("one-way SendCtrl allocates %.2f/op, want 0", allocs)
	}
}

// TestBarrierCountsEveryGeneration runs 300 barriers on three ranks. A
// release carries no generation number, so every rank must count each
// one itself.
func TestBarrierCountsEveryGeneration(t *testing.T) {
	w := NewWorld(Config{Cluster: cluster.NiagaraConfig(3)})
	const rounds = 300
	err := w.Run(func(p *sim.Proc, r *Rank) {
		for i := 0; i < rounds; i++ {
			r.Barrier(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Size(); i++ {
		if g := w.Rank(i).barrier.generation; g != rounds {
			t.Errorf("rank %d at generation %d, want %d", i, g, rounds)
		}
	}
}

func TestDuplicateCtrlHandlerPanics(t *testing.T) {
	w := twoNodeWorld()
	w.Rank(0).HandleCtrl("k", func(int, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler did not panic")
		}
	}()
	w.Rank(0).HandleCtrl("k", func(int, any) {})
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(Config{Cluster: cluster.NiagaraConfig(4)})
	var after []sim.Time
	err := w.Run(func(p *sim.Proc, r *Rank) {
		// Stagger arrivals; all must leave at (or after) the last arrival.
		p.Sleep(time.Duration(r.ID()) * time.Millisecond)
		r.Barrier(p)
		after = append(after, p.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	last := sim.Time(3 * time.Millisecond)
	for i, at := range after {
		if at < last {
			t.Errorf("rank %d left barrier at %v, before last arrival %v", i, at, last)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(Config{Cluster: cluster.NiagaraConfig(2)})
	counts := make([]int, 2)
	err := w.Run(func(p *sim.Proc, r *Rank) {
		for i := 0; i < 5; i++ {
			r.Barrier(p)
			counts[r.ID()]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestProgressTryLock(t *testing.T) {
	// While one proc is inside Progress (sleeping on WCProcess), another
	// proc's Progress must return false immediately.
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)

	// Wire a QP pair between rank 0 and rank 1 carrying one completion.
	handled := 0
	qp0, qp1 := qpPair(t, r0, r1, ibv.QPConfig{}, ibv.QPConfig{},
		func(*sim.Proc, ibv.WC) {}, func(*sim.Proc, ibv.WC) { handled++ })
	mr0 := regMR(t, r0, 64)
	mr1 := regMR(t, r1, 64)
	if err := qp1.PostRecv(ibv.RecvWR{}); err != nil {
		t.Fatal(err)
	}
	err := qp0.PostSend(ibv.SendWR{
		Opcode:     ibv.OpRDMAWriteImm,
		SGList:     []ibv.SGE{mr0.SGEFor(0, 64)},
		RemoteAddr: mr1.Addr(),
		RKey:       mr1.RKey(),
		Imm:        1,
	})
	if err != nil {
		t.Fatal(err)
	}

	e := w.Engine()
	secondSawBusy := false
	e.Spawn("first", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // after the completion arrives
		if !r1.Progress(p) {
			t.Error("first Progress found nothing to do")
		}
	})
	e.Spawn("second", func(p *sim.Proc) {
		// Land inside first's WCProcess sleep window.
		p.Sleep(time.Millisecond + 50*time.Nanosecond)
		if r1.Progress(p) {
			secondSawBusy = false
		} else {
			secondSawBusy = true
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !secondSawBusy {
		t.Fatal("second Progress did not observe the try-lock")
	}
	if handled != 1 {
		t.Fatalf("handled %d completions, want 1", handled)
	}
	if r1.WCProcessed() != 1 {
		t.Fatalf("WCProcessed = %d", r1.WCProcessed())
	}
}

func TestWaitOnWakesOnCtrl(t *testing.T) {
	w := twoNodeWorld()
	flag := false
	w.Rank(1).HandleCtrl("set", func(int, any) { flag = true })
	var wokeAt sim.Time
	err := w.Run(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			p.Sleep(2 * time.Millisecond)
			r.SendCtrl(1, "set", nil)
		case 1:
			r.WaitOn(p, func() bool { return flag })
			wokeAt = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if wokeAt < sim.Time(2*time.Millisecond) {
		t.Fatalf("woke at %v before flag was set", wokeAt)
	}
}

func TestLaunchGroupCompletion(t *testing.T) {
	w := twoNodeWorld()
	g := w.Launch(func(p *sim.Proc, r *Rank) {
		p.Sleep(time.Duration(r.ID()+1) * time.Millisecond)
	})
	var doneAt sim.Time
	w.Engine().Spawn("watcher", func(p *sim.Proc) {
		g.Wait(p)
		doneAt = p.Now()
	})
	if err := w.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != sim.Time(2*time.Millisecond) {
		t.Fatalf("group completed at %v, want 2ms", doneAt)
	}
}
