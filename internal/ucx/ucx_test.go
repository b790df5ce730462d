package ucx_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ibv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// env wires a two-rank world with one transport per rank.
type env struct {
	w  *mpi.World
	ts []*ucx.Transport
}

func newEnv(t *testing.T) *env {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	e := &env{w: w}
	for i := 0; i < 2; i++ {
		e.ts = append(e.ts, ucx.New(w.Rank(i)))
	}
	return e
}

// regMem registers a buffer in a rank's protection domain.
func (e *env) regMem(t *testing.T, rank int, buf []byte) *ibv.MR {
	t.Helper()
	mr, err := e.w.Rank(rank).PD().RegMR(buf)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// received records one delivered active message.
type received struct {
	from   int
	header uint64
	data   []byte
	at     sim.Time
}

// collect installs an eager handler appending into a slice.
func collect(tr *ucx.Transport, out *[]received) {
	tr.SetEagerHandler(func(p *sim.Proc, from int, header uint64, data []byte) {
		cp := make([]byte, len(data))
		copy(cp, data)
		*out = append(*out, received{from: from, header: header, data: cp, at: p.Now()})
	})
}

func TestEagerBcopyRoundTrip(t *testing.T) {
	e := newEnv(t)
	var got []received
	collect(e.ts[1], &got)
	payload := []byte("hello partitioned world")
	mr := e.regMem(t, 0, append([]byte(nil), payload...))
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := e.ts[0].SendMR(p, 1, 0xabcd, mr, 0, len(payload)); err != nil {
				t.Error(err)
			}
		case 1:
			r.WaitOn(p, func() bool { return len(got) == 1 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].from != 0 || got[0].header != 0xabcd || !bytes.Equal(got[0].data, payload) {
		t.Fatalf("got %+v", got[0])
	}
	b, z, rv := e.ts[0].Stats()
	if b != 1 || z != 0 || rv != 0 {
		t.Fatalf("stats = %d/%d/%d, want bcopy only", b, z, rv)
	}
}

func TestProtocolSelectionBySize(t *testing.T) {
	e := newEnv(t)
	mr := e.regMem(t, 0, make([]byte, 1<<20))
	delivered := 0
	e.ts[1].SetEagerHandler(func(p *sim.Proc, from int, header uint64, data []byte) { delivered++ })
	// Rendezvous placement: land in a receiver-side region.
	rmr := e.regMem(t, 1, make([]byte, 1<<20))
	e.ts[1].SetRndv(
		func(from int, header uint64, size int) (*ibv.MR, int, bool) { return rmr, 0, true },
		func(from int, header uint64, size int) { delivered++ },
	)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			e.ts[0].SendMR(p, 1, 1, mr, 0, 512)    // bcopy
			e.ts[0].SendMR(p, 1, 2, mr, 0, 8192)   // zcopy
			e.ts[0].SendMR(p, 1, 3, mr, 0, 131072) // rendezvous
			// Keep progressing: the rendezvous FIN is sent from the
			// sender's progress path when the RDMA write completes.
			r.WaitOn(p, e.ts[0].Quiescent)
		case 1:
			r.WaitOn(p, func() bool { return delivered == 3 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b, z, rv := e.ts[0].Stats()
	if b != 1 || z != 1 || rv != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", b, z, rv)
	}
}

func TestZcopyDeliversExactBytes(t *testing.T) {
	e := newEnv(t)
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 13)
	}
	mr := e.regMem(t, 0, buf)
	var got []received
	collect(e.ts[1], &got)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			e.ts[0].SendMR(p, 1, 7, mr, 100, 4000)
		case 1:
			r.WaitOn(p, func() bool { return len(got) == 1 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0].data, buf[100:4100]) {
		t.Fatal("zcopy payload mismatch")
	}
}

// TestRendezvousLandsDirectlyInUserMemory: above the rendezvous threshold
// the payload lands straight in the zone the receiver's target resolver
// names.
func TestRendezvousLandsDirectlyInUserMemory(t *testing.T) {
	e := newEnv(t)
	src := make([]byte, 256<<10)
	for i := range src {
		src[i] = byte(i)
	}
	smr := e.regMem(t, 0, src)
	dst := make([]byte, 256<<10)
	dmr := e.regMem(t, 1, dst)
	done := false
	var doneSize int
	e.ts[1].SetRndv(
		func(from int, header uint64, size int) (*ibv.MR, int, bool) {
			if header != 99 {
				t.Errorf("rndv header = %d", header)
			}
			return dmr, 0, true
		},
		func(from int, header uint64, size int) { done = true; doneSize = size },
	)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			e.ts[0].SendMR(p, 1, 99, smr, 0, len(src))
			r.WaitOn(p, e.ts[0].Quiescent)
		case 1:
			r.WaitOn(p, func() bool { return done })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if doneSize != len(src) {
		t.Fatalf("done size = %d", doneSize)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("rendezvous payload mismatch")
	}
}

func TestManyMessagesSurviveStagingPressure(t *testing.T) {
	// More sends than the 64 staging slots and the 32 eager credits per
	// rail, while the receiver computes instead of progressing: the
	// transport must defer, flow-control, and eventually deliver everything
	// exactly once. Multi-rail delivery does not guarantee a global order,
	// so this checks completeness and payload integrity per header.
	e := newEnv(t)
	var got []received
	collect(e.ts[1], &got)
	const n = 160
	const busy = 100 * time.Microsecond
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	mr := e.regMem(t, 0, buf)
	var quiescentAt sim.Time
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				if err := e.ts[0].SendMR(p, 1, uint64(i), mr, i, 1); err != nil {
					t.Error(err)
				}
			}
			// Deferred sends flush from the sender's progress path as
			// staging slots and credits free up; keep progressing until
			// acknowledged.
			r.WaitOn(p, e.ts[0].Quiescent)
			quiescentAt = p.Now()
		case 1:
			p.Sleep(busy)
			r.WaitOn(p, func() bool { return len(got) == n })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sender's own completions free its staging slots long before the
	// receiver wakes; only returned credits can release the rest.
	if quiescentAt < sim.Time(busy) {
		t.Fatalf("sender quiescent at %v, before the receiver returned any credit", quiescentAt)
	}
	seen := make(map[uint64]bool)
	for _, m := range got {
		if seen[m.header] {
			t.Fatalf("duplicate delivery of header %d", m.header)
		}
		seen[m.header] = true
		if m.data[0] != byte(m.header) {
			t.Fatalf("payload mismatch for header %d: %d", m.header, m.data[0])
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), n)
	}
}

func TestBcopyCapturesPayloadAtSendTime(t *testing.T) {
	// Under staging pressure the payload is mutated after SendMR
	// returns; the receiver must still see the original bytes.
	e := newEnv(t)
	var got []received
	collect(e.ts[1], &got)
	const slots = 64
	buf := make([]byte, slots+1)
	for i := range buf {
		buf[i] = byte(i)
	}
	mr := e.regMem(t, 0, buf)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			// The sender does not progress while sending, so no staging
			// slot comes back: the first 64 sends fill them all.
			for i := 0; i < slots; i++ {
				e.ts[0].SendMR(p, 1, uint64(i), mr, i, 1)
			}
			e.ts[0].SendMR(p, 1, slots, mr, slots, 1) // deferred: staging exhausted
			buf[slots] = 99                           // mutate after SendMR
			r.WaitOn(p, e.ts[0].Quiescent)
		case 1:
			r.WaitOn(p, func() bool { return len(got) == slots+1 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if m.header == slots && m.data[0] != slots {
			t.Fatalf("deferred bcopy delivered %d, want %d (captured at send time)", m.data[0], slots)
		}
	}
}

func TestLazyWireupHappensOnce(t *testing.T) {
	e := newEnv(t)
	var got []received
	collect(e.ts[1], &got)
	mr := e.regMem(t, 0, []byte{1, 2})
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if e.ts[0].Connected(1) {
				t.Error("connected before first send")
			}
			e.ts[0].SendMR(p, 1, 1, mr, 0, 1)
			e.ts[0].SendMR(p, 1, 2, mr, 1, 1)
			r.WaitOn(p, func() bool { return e.ts[0].Connected(1) })
		case 1:
			r.WaitOn(p, func() bool { return len(got) == 2 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.ts[0].Connected(1) || !e.ts[1].Connected(0) {
		t.Fatal("endpoints not wired both ways")
	}
}

func TestSendMRRangeValidation(t *testing.T) {
	e := newEnv(t)
	mr := e.regMem(t, 0, make([]byte, 100))
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() == 0 {
			if err := e.ts[0].SendMR(p, 1, 1, mr, 50, 100); !errors.Is(err, ucx.ErrMemBounds) {
				t.Errorf("out-of-range SendMR: err = %v, want ErrMemBounds", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcopyChargesCopyCost(t *testing.T) {
	// A bcopy send charges the modelled memcpy time on the sending proc:
	// 0.05 ns/B, so 1000 more payload bytes cost exactly 50ns more.
	e := newEnv(t)
	var small, large time.Duration
	var got []received
	collect(e.ts[1], &got)
	mr := e.regMem(t, 0, make([]byte, 1001))
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			start := p.Now()
			e.ts[0].SendMR(p, 1, 1, mr, 0, 1)
			small = p.Now().Sub(start)
			start = p.Now()
			e.ts[0].SendMR(p, 1, 2, mr, 0, 1001)
			large = p.Now().Sub(start)
		case 1:
			r.WaitOn(p, func() bool { return len(got) == 2 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if large-small != 50*time.Nanosecond {
		t.Fatalf("bcopy sends took %v and %v, want 50ns of copy cost between them", small, large)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	e := newEnv(t)
	var got0, got1 []received
	collect(e.ts[0], &got0)
	collect(e.ts[1], &got1)
	mrs := []*ibv.MR{e.regMem(t, 0, []byte{0}), e.regMem(t, 1, []byte{1})}
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		other := 1 - r.ID()
		e.ts[r.ID()].SendMR(p, other, uint64(r.ID()), mrs[r.ID()], 0, 1)
		r.WaitOn(p, func() bool {
			if r.ID() == 0 {
				return len(got0) == 1
			}
			return len(got1) == 1
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got0[0].from != 1 || got1[0].from != 0 {
		t.Fatalf("senders: %d, %d", got0[0].from, got1[0].from)
	}
}

func TestRendezvousGetScheme(t *testing.T) {
	// The receiver RDMA-reads the sender's memory directly from the RTS;
	// no CTS/write round trip, and the send counts as one rendezvous.
	e := newEnv(t)
	src := make([]byte, 512<<10)
	for i := range src {
		src[i] = byte(i * 11)
	}
	smr := e.regMem(t, 0, src)
	dst := make([]byte, len(src))
	dmr := e.regMem(t, 1, dst)
	done := false
	e.ts[1].SetRndv(
		func(from int, header uint64, size int) (*ibv.MR, int, bool) { return dmr, 0, true },
		func(from int, header uint64, size int) { done = true },
	)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			e.ts[0].SendMR(p, 1, 55, smr, 0, len(src))
			r.WaitOn(p, e.ts[0].Quiescent)
		case 1:
			r.WaitOn(p, func() bool { return done })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("rendezvous-get payload mismatch")
	}
	_, _, rv := e.ts[0].Stats()
	if rv != 1 {
		t.Fatalf("rndv sends = %d", rv)
	}
}
