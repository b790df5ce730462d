package partib_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/xport"
	"repro/partib"
)

func mustEngine(t *testing.T, r *partib.Rank) *partib.Engine {
	t.Helper()
	eng, err := partib.NewEngine(r)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustComm(t *testing.T, r *partib.Rank) *partib.Comm {
	t.Helper()
	c, err := partib.NewComm(r)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPublicAPIRoundTrip is the quickstart flow through the public facade
// only: a timer-aggregated partitioned send with simulated threads.
func TestPublicAPIRoundTrip(t *testing.T) {
	const parts, total = 8, 64 << 10
	job := partib.NewJob(partib.JobConfig{Nodes: 2})
	engines := []*partib.Engine{
		mustEngine(t, job.Rank(0)),
		mustEngine(t, job.Rank(1)),
	}
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 3)
	}
	dst := make([]byte, total)

	err := job.Run(func(p *partib.Proc, r *partib.Rank) {
		eng := engines[r.ID()]
		switch r.ID() {
		case 0:
			ps, err := eng.PsendInit(p, src, parts, 1, 42, partib.Options{
				Strategy: partib.StrategyTimerPLogGP,
				Delta:    35 * time.Microsecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			g := partib.NewGroup(job)
			for i := 0; i < parts; i++ {
				i := i
				partib.SpawnThread(job, g, "worker", func(tp *partib.Proc) {
					r.Compute(tp, time.Duration(i+1)*10*time.Microsecond)
					ps.Pready(tp, i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
		case 1:
			pr, err := eng.PrecvInit(p, dst, parts, 0, 42, partib.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			pr.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("public API round trip corrupted data")
	}
}

func TestJobDefaults(t *testing.T) {
	job := partib.NewJob(partib.JobConfig{})
	if job.Size() != 2 {
		t.Fatalf("default job size = %d", job.Size())
	}
	if job.Rank(0).Node().CPU.Servers() != 40 {
		t.Fatalf("default cores = %d", job.Rank(0).Node().CPU.Servers())
	}
	job2 := partib.NewJob(partib.JobConfig{Nodes: 3, CoresPerNode: 8, RanksPerNode: 2})
	if job2.Size() != 6 || job2.Rank(0).Node().CPU.Servers() != 8 {
		t.Fatalf("custom job: size=%d cores=%d", job2.Size(), job2.Rank(0).Node().CPU.Servers())
	}
}

func TestLinkBandwidthPositive(t *testing.T) {
	if partib.LinkBandwidth() <= 0 {
		t.Fatal("non-positive link bandwidth")
	}
}

// TestMixedPartitionedAndPt2pt verifies a partitioned engine and a
// point-to-point Comm coexist on the same ranks.
func TestMixedPartitionedAndPt2pt(t *testing.T) {
	job := partib.NewJob(partib.JobConfig{Nodes: 2})
	engines := []*partib.Engine{
		mustEngine(t, job.Rank(0)),
		mustEngine(t, job.Rank(1)),
	}
	comms := []*partib.Comm{
		mustComm(t, job.Rank(0)),
		mustComm(t, job.Rank(1)),
	}
	const parts, total = 4, 16 << 10
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, total)
	ctrl := make([]byte, 8)

	err := job.Run(func(p *partib.Proc, r *partib.Rank) {
		switch r.ID() {
		case 0:
			// Ordinary message first, partitioned transfer second.
			if err := comms[0].Send(p, []byte("go-ahead"), 1, 1); err != nil {
				t.Error(err)
			}
			ps, err := engines[0].PsendInit(p, src, parts, 1, 2, partib.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			ps.PreadyRange(p, 0, parts)
			ps.Wait(p)
		case 1:
			if _, _, n, err := comms[1].Recv(p, ctrl, 0, 1); err != nil || n != 8 {
				t.Errorf("ctrl recv: n=%d err=%v", n, err)
			}
			pr, err := engines[1].PrecvInit(p, dst, parts, 0, 2, partib.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			pr.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(ctrl) != "go-ahead" {
		t.Fatalf("ctrl payload %q", ctrl)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("partitioned payload mismatch")
	}
}

func TestModelAndToolsFacade(t *testing.T) {
	if got := partib.OptimalTransport(1<<20, 32, 4*time.Millisecond); got != 2 {
		t.Fatalf("OptimalTransport(1MiB) = %d, want 2 (Table I)", got)
	}
	params := partib.NiagaraParams()
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	m := partib.NewPLogGPModel(params)
	if m.OptimalTransport(128<<20, 128, 4*time.Millisecond) != 32 {
		t.Fatal("model facade disagrees with Table I at 128MiB")
	}
	measured, err := partib.MeasureLogGP()
	if err != nil {
		t.Fatal(err)
	}
	if err := measured.Validate(); err != nil {
		t.Fatal(err)
	}
	table, err := partib.SearchTuningTable(partib.TuningSearchConfig{
		UserParts: []int{4},
		Sizes:     []int{16 << 10},
		Warmup:    1,
		Iters:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 1 {
		t.Fatalf("tuning table has %d entries", table.Len())
	}
}

func TestCollectivesFacade(t *testing.T) {
	job := partib.NewJob(partib.JobConfig{Nodes: 3})
	colls := make([]*partib.Coll, job.Size())
	for i := range colls {
		colls[i] = partib.NewColl(mustComm(t, job.Rank(i)))
	}
	sums := make([]float64, job.Size())
	err := job.Run(func(p *partib.Proc, r *partib.Rank) {
		out := make([]float64, 1)
		if err := colls[r.ID()].Allreduce(p, []float64{float64(r.ID() + 1)}, out, partib.OpSum); err != nil {
			t.Error(err)
		}
		sums[r.ID()] = out[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != 6 {
			t.Fatalf("rank %d sum = %v, want 6", i, s)
		}
	}
}

func TestLayeredFacade(t *testing.T) {
	job := partib.NewJob(partib.JobConfig{Nodes: 2})
	comms := []*partib.Comm{mustComm(t, job.Rank(0)), mustComm(t, job.Rank(1))}
	src := []byte{1, 2, 3, 4}
	dst := make([]byte, 4)
	err := job.Run(func(p *partib.Proc, r *partib.Rank) {
		switch r.ID() {
		case 0:
			ps, err := partib.LayeredPsendInit(p, comms[0], src, 2, 1, 5)
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			ps.Pready(p, 0)
			ps.Pready(p, 1)
			ps.Wait(p)
		case 1:
			pr, err := partib.LayeredPrecvInit(p, comms[1], dst, 2, 0, 5)
			if err != nil {
				t.Error(err)
				return
			}
			pr.Start(p)
			pr.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("layered facade round trip corrupted data")
	}
}

// TestNewEngineOnUnknownProvider: "ucx" names the middleware every provider
// builds, not a provider of its own, so asking for it is the typed
// unknown-provider error.
func TestNewEngineOnUnknownProvider(t *testing.T) {
	job := partib.NewJob(partib.JobConfig{Nodes: 2})
	if _, err := partib.NewEngineOn(job.Rank(0), "ucx"); !errors.Is(err, xport.ErrUnknownProvider) {
		t.Fatalf("NewEngineOn(ucx) error = %v, want one wrapping xport.ErrUnknownProvider", err)
	}
}
