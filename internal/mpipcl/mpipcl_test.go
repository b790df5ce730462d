package mpipcl

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/pt2pt"
	"repro/internal/sim"
)

type env struct {
	w  *mpi.World
	cs []*pt2pt.Comm
}

func newEnv() *env {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	e := &env{w: w}
	for i := 0; i < 2; i++ {
		c, err := pt2pt.New(w.Rank(i))
		if err != nil {
			panic(err)
		}
		e.cs = append(e.cs, c)
	}
	return e
}

func TestLayeredRoundTrip(t *testing.T) {
	e := newEnv()
	const parts, total = 8, 64 << 10
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 3)
	}
	dst := make([]byte, total)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, err := PsendInit(p, e.cs[0], src, parts, 1, 7)
			if err != nil {
				t.Error(err)
				return
			}
			ps.Start(p)
			for i := 0; i < parts; i++ {
				ps.Pready(p, i)
			}
			ps.Wait(p)
		case 1:
			pr, err := PrecvInit(p, e.cs[1], dst, parts, 0, 7)
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
		t.Fatal("layered round trip corrupted data")
	}
}

func TestLayeredPersistentRounds(t *testing.T) {
	e := newEnv()
	const parts, total, rounds = 4, 16 << 10, 5
	src := make([]byte, total)
	dst := make([]byte, total)
	mismatches := 0
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, _ := PsendInit(p, e.cs[0], src, parts, 1, 1)
			for round := 0; round < rounds; round++ {
				for i := range src {
					src[i] = byte(round + i)
				}
				ps.Start(p)
				for i := 0; i < parts; i++ {
					ps.Pready(p, i)
				}
				ps.Wait(p)
				r.Barrier(p)
			}
		case 1:
			pr, _ := PrecvInit(p, e.cs[1], dst, parts, 0, 1)
			for round := 0; round < rounds; round++ {
				pr.Start(p)
				pr.Wait(p)
				for i := range dst {
					if dst[i] != byte(round+i) {
						mismatches++
						break
					}
				}
				r.Barrier(p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mismatches != 0 {
		t.Fatalf("%d rounds carried wrong data", mismatches)
	}
}

func TestLayeredParrivedEarlyBird(t *testing.T) {
	// Like the native module's baseline, the layered library sends each
	// partition immediately: early partitions are visible via Parrived
	// before the laggard arrives.
	e := newEnv()
	const parts, total = 4, 16 << 10
	src := make([]byte, total)
	dst := make([]byte, total)
	var earlyCount int
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, _ := PsendInit(p, e.cs[0], src, parts, 1, 2)
			ps.Start(p)
			g := sim.NewGroup(p.Engine())
			for i := 0; i < parts; i++ {
				i := i
				g.Add(1)
				p.Engine().Spawn("t", func(tp *sim.Proc) {
					defer g.Done()
					if i == parts-1 {
						tp.Sleep(5 * time.Millisecond)
					}
					ps.Pready(tp, i)
				})
			}
			g.Wait(p)
			ps.Wait(p)
		case 1:
			pr, _ := PrecvInit(p, e.cs[1], dst, parts, 0, 2)
			pr.Start(p)
			p.Sleep(2 * time.Millisecond)
			for i := 0; i < parts-1; i++ {
				if ok, _ := pr.Parrived(p, i); ok {
					earlyCount++
				}
			}
			if ok, _ := pr.Parrived(p, parts-1); ok {
				t.Error("laggard arrived early")
			}
			pr.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if earlyCount != parts-1 {
		t.Fatalf("only %d of %d early partitions visible", earlyCount, parts-1)
	}
}

func TestLayeredValidation(t *testing.T) {
	e := newEnv()
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		if _, err := PsendInit(p, e.cs[0], nil, 1, 1, 0); err == nil {
			t.Error("empty buffer accepted")
		}
		if _, err := PsendInit(p, e.cs[0], make([]byte, 10), 3, 1, 0); err == nil {
			t.Error("indivisible partitioning accepted")
		}
		if _, err := PrecvInit(p, e.cs[0], make([]byte, 10), 3, 1, 0); err == nil {
			t.Error("indivisible receive accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLayeredDoublePreadyFails(t *testing.T) {
	e := newEnv()
	var preadyErr error
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, _ := PsendInit(p, e.cs[0], make([]byte, 1024), 4, 1, 0)
			ps.Start(p)
			ps.Pready(p, 0)
			preadyErr = ps.Pready(p, 0)
		case 1:
			pr, _ := PrecvInit(p, e.cs[1], make([]byte, 1024), 4, 0, 0)
			pr.Start(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(preadyErr, ErrPartitionState) {
		t.Fatalf("double Pready returned %v; want ErrPartitionState", preadyErr)
	}
}

func TestLayeredPreadyRangeError(t *testing.T) {
	e := newEnv()
	var rangeErr, parrivedErr error
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, _ := PsendInit(p, e.cs[0], make([]byte, 1024), 4, 1, 0)
			ps.Start(p)
			rangeErr = ps.Pready(p, 4)
			for i := 0; i < 4; i++ {
				ps.Pready(p, i)
			}
			ps.Wait(p)
		case 1:
			pr, _ := PrecvInit(p, e.cs[1], make([]byte, 1024), 4, 0, 0)
			pr.Start(p)
			_, parrivedErr = pr.Parrived(p, -1)
			pr.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rangeErr, ErrPartitionRange) {
		t.Fatalf("out-of-range Pready returned %v; want ErrPartitionRange", rangeErr)
	}
	if !errors.Is(parrivedErr, ErrPartitionRange) {
		t.Fatalf("out-of-range Parrived returned %v; want ErrPartitionRange", parrivedErr)
	}
}

func TestLayeredComparableToNativeBaseline(t *testing.T) {
	// The Worley et al. claim the paper cites: the layered library is
	// within a modest factor of the in-library persistent implementation.
	// Both send one message per partition through the same transport
	// machinery, so round times must be the same order of magnitude.
	layered := func() time.Duration {
		e := newEnv()
		const parts, total = 16, 256 << 10
		src := make([]byte, total)
		dst := make([]byte, total)
		var took sim.Time
		err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			switch r.ID() {
			case 0:
				ps, _ := PsendInit(p, e.cs[0], src, parts, 1, 1)
				ps.Start(p)
				for i := 0; i < parts; i++ {
					ps.Pready(p, i)
				}
				ps.Wait(p)
			case 1:
				pr, _ := PrecvInit(p, e.cs[1], dst, parts, 0, 1)
				start := p.Now()
				pr.Start(p)
				pr.Wait(p)
				took = p.Now() - start
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return took.Duration()
	}()
	if layered <= 0 || layered > 10*time.Millisecond {
		t.Fatalf("layered round took %v; expected a sane sub-10ms round", layered)
	}
}
