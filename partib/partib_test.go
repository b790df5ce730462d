package partib_test

import (
	"bytes"
	"testing"
	"time"

	"repro/partib"
)

func mustJob(t *testing.T, cfg partib.JobConfig) *partib.World {
	t.Helper()
	job, err := partib.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func mustEngine(t *testing.T, r *partib.Rank) *partib.Engine {
	t.Helper()
	eng, err := partib.NewEngine(r)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPublicAPIRoundTrip is the quickstart flow through the public facade
// only: a timer-aggregated partitioned send with simulated threads.
func TestPublicAPIRoundTrip(t *testing.T) {
	const parts, total = 8, 64 << 10
	job := mustJob(t, partib.JobConfig{Nodes: 2})
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
	job := mustJob(t, partib.JobConfig{})
	if job.Size() != 2 {
		t.Fatalf("default job size = %d", job.Size())
	}
	if job.Rank(0).Node().CPU.Servers() != 40 {
		t.Fatalf("default cores = %d", job.Rank(0).Node().CPU.Servers())
	}
	job2 := mustJob(t, partib.JobConfig{Nodes: 3, CoresPerNode: 8, RanksPerNode: 2})
	if job2.Size() != 6 || job2.Rank(0).Node().CPU.Servers() != 8 {
		t.Fatalf("custom job: size=%d cores=%d", job2.Size(), job2.Rank(0).Node().CPU.Servers())
	}
	for _, bad := range []partib.JobConfig{
		{Nodes: -1},
		{CoresPerNode: -1},
		{RanksPerNode: -1},
	} {
		if job, err := partib.NewJob(bad); err == nil || job != nil {
			t.Errorf("NewJob(%+v) = %v, %v; want nil and an error", bad, job, err)
		}
	}
}

func TestModelAndToolsFacade(t *testing.T) {
	for _, c := range []struct{ bytes, userParts, want int }{
		{1 << 20, 32, 2},     // Table I
		{128 << 20, 128, 32}, // Table I
	} {
		got, err := partib.OptimalTransport(c.bytes, c.userParts, 4*time.Millisecond)
		if err != nil || got != c.want {
			t.Fatalf("OptimalTransport(%d, %d) = %d, %v; want %d (Table I)", c.bytes, c.userParts, got, err, c.want)
		}
	}
	for _, bad := range [][2]int{{0, 32}, {-1, 32}, {1 << 20, 0}, {1 << 20, -4}} {
		if _, err := partib.OptimalTransport(bad[0], bad[1], 4*time.Millisecond); err == nil {
			t.Errorf("OptimalTransport(%d, %d) returned no error", bad[0], bad[1])
		}
	}
	params := partib.NiagaraParams()
	if err := params.Validate(); err != nil {
		t.Fatal(err)
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
