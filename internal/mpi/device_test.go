package mpi

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ibv"
	"repro/internal/sim"
)

// regMR registers n bytes in the rank's protection domain.
func regMR(t testing.TB, r *Rank, n int) *ibv.MR {
	t.Helper()
	mr, err := r.PD().RegMR(make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// newQP creates a queue pair on the rank's device context.
func newQP(t testing.TB, r *Rank, cfg ibv.QPConfig, onWC func(*sim.Proc, ibv.WC)) *ibv.QP {
	t.Helper()
	qp, err := r.CreateQP(cfg, onWC)
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

// qpPair creates one queue pair on each rank and connects them.
func qpPair(t testing.TB, r0, r1 *Rank, cfg0, cfg1 ibv.QPConfig, on0, on1 func(*sim.Proc, ibv.WC)) (*ibv.QP, *ibv.QP) {
	t.Helper()
	qp0, qp1 := newQP(t, r0, cfg0, on0), newQP(t, r1, cfg1, on1)
	if err := qp0.Connect(qp1); err != nil {
		t.Fatal(err)
	}
	if err := qp1.Connect(qp0); err != nil {
		t.Fatal(err)
	}
	return qp0, qp1
}

func noWC(*sim.Proc, ibv.WC) {}

// TestCreateQPSharesDeviceContext: every queue pair of a rank lives in the
// rank's one PD and starts in INIT, and a queue pair without a completion
// handler is refused.
func TestCreateQPSharesDeviceContext(t *testing.T) {
	r := twoNodeWorld().Rank(0)
	if _, err := r.CreateQP(ibv.QPConfig{}, nil); err == nil {
		t.Error("CreateQP accepted a nil completion handler")
	}
	a := newQP(t, r, ibv.QPConfig{}, noWC)
	b := newQP(t, r, ibv.QPConfig{}, noWC)
	if a.PD() != r.PD() || b.PD() != r.PD() {
		t.Error("queue pairs outside the rank's PD")
	}
	if a.State() != ibv.StateInit {
		t.Errorf("fresh queue pair in %v, want INIT", a.State())
	}
}

// TestConnectEitherOrder wires one pair initiator-first and one
// acceptor-first; both carry a SEND, and each arrival reaches the handler
// of the queue pair it landed on.
func TestConnectEitherOrder(t *testing.T) {
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)
	got := map[string]int{}
	sink := func(name string) func(*sim.Proc, ibv.WC) {
		return func(_ *sim.Proc, wc ibv.WC) {
			if wc.Opcode == ibv.WCRecv && wc.Status == ibv.StatusSuccess {
				got[name]++
			}
		}
	}
	a0, a1 := newQP(t, r0, ibv.QPConfig{}, noWC), newQP(t, r1, ibv.QPConfig{}, sink("a"))
	b0, b1 := newQP(t, r0, ibv.QPConfig{}, noWC), newQP(t, r1, ibv.QPConfig{}, sink("b"))
	for _, c := range [][2]*ibv.QP{{a0, a1}, {a1, a0}, {b1, b0}, {b0, b1}} {
		if err := c[0].Connect(c[1]); err != nil {
			t.Fatal(err)
		}
	}
	src, dst := regMR(t, r0, 64), regMR(t, r1, 128)
	for _, qp := range []*ibv.QP{a1, b1} {
		if err := qp.PostRecv(ibv.RecvWR{SGList: []ibv.SGE{dst.SGEFor(0, 128)}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, qp := range []*ibv.QP{a0, b0} {
		if err := qp.PostSend(ibv.SendWR{Opcode: ibv.OpSend, SGList: []ibv.SGE{src.SGEFor(0, 64)}}); err != nil {
			t.Fatal(err)
		}
	}
	err := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 1 {
			r.WaitOn(p, func() bool { return got["a"]+got["b"] == 2 })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("deliveries per pair = %v, want one each", got)
	}
}

// TestProgressDeliversInOrder: the drain hands every completion, with its
// immediate, to the owning queue pair's handler in posted order on both
// sides, and message k lands in receive slot k.
func TestProgressDeliversInOrder(t *testing.T) {
	const msgs = 8
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)
	var sent, recvd []ibv.WC
	qp0, qp1 := qpPair(t, r0, r1, ibv.QPConfig{}, ibv.QPConfig{},
		func(_ *sim.Proc, wc ibv.WC) { sent = append(sent, wc) },
		func(_ *sim.Proc, wc ibv.WC) { recvd = append(recvd, wc) })
	src := regMR(t, r0, 256*msgs)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i * 7)
	}
	dst := regMR(t, r1, 256*msgs)
	for i := 0; i < msgs; i++ {
		if err := qp1.PostRecv(ibv.RecvWR{WRID: uint64(200 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		err := qp0.PostSend(ibv.SendWR{
			WRID:       uint64(100 + i),
			Opcode:     ibv.OpRDMAWriteImm,
			SGList:     []ibv.SGE{src.SGEFor(256*i, 256)},
			RemoteAddr: dst.Addr() + uint64(256*i),
			RKey:       dst.RKey(),
			Imm:        0xbeef0000 | uint32(i),
			Signaled:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.WaitOn(p, func() bool { return len(sent) == msgs })
		} else {
			r.WaitOn(p, func() bool { return len(recvd) == msgs })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if wc := sent[i]; wc.WRID != uint64(100+i) || wc.Status != ibv.StatusSuccess || wc.Opcode != ibv.WCRDMAWrite {
			t.Fatalf("send completion %d = %+v", i, wc)
		}
		wc := recvd[i]
		if wc.WRID != uint64(200+i) || wc.Status != ibv.StatusSuccess || wc.Opcode != ibv.WCRecvRDMAWithImm {
			t.Fatalf("recv completion %d = %+v", i, wc)
		}
		if !wc.HasImm || wc.Imm != 0xbeef0000|uint32(i) || wc.ByteLen != 256 {
			t.Fatalf("recv completion %d carries %+v", i, wc)
		}
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("payloads did not land in their slots")
	}
	if r0.WCProcessed() != msgs || r1.WCProcessed() != msgs {
		t.Fatalf("WCProcessed = %d, %d, want %d each", r0.WCProcessed(), r1.WCProcessed(), msgs)
	}
}

// TestProgressChargesPerCompletion: the drain charges WCProcess of virtual
// time per completion to the progressing proc.
func TestProgressChargesPerCompletion(t *testing.T) {
	const msgs = 3
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)
	qp0, qp1 := qpPair(t, r0, r1, ibv.QPConfig{}, ibv.QPConfig{}, noWC, noWC)
	src, dst := regMR(t, r0, 8), regMR(t, r1, 8)
	for i := 0; i < msgs; i++ {
		if err := qp1.PostRecv(ibv.RecvWR{}); err != nil {
			t.Fatal(err)
		}
		err := qp0.PostSend(ibv.SendWR{
			Opcode:     ibv.OpRDMAWriteImm,
			SGList:     []ibv.SGE{src.SGEFor(0, 8)},
			RemoteAddr: dst.Addr(),
			RKey:       dst.RKey(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var took time.Duration
	w.Engine().Spawn("drain", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // every write has landed
		start := p.Now()
		r1.Progress(p)
		took = p.Now().Sub(start)
	})
	if err := w.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if took != msgs*WCProcess {
		t.Fatalf("drain of %d completions took %v, want %v", msgs, took, msgs*WCProcess)
	}
}

// TestHandlerSleepInDrain: a completion handler may charge virtual time
// with p.Sleep inside the drain. The sleep resumes on its own timer, and
// a second proc that polls meanwhile finds the progress try-lock taken,
// parks in WaitOn until the drain broadcasts, then sees the state the
// handler set. Both procs finish when the drain does, and nothing
// deadlocks.
func TestHandlerSleepInDrain(t *testing.T) {
	const charge = 3 * time.Microsecond
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)
	set := false
	qp0, qp1 := qpPair(t, r0, r1, ibv.QPConfig{}, ibv.QPConfig{}, noWC,
		func(p *sim.Proc, _ ibv.WC) {
			p.Sleep(charge)
			set = true
		})
	src, dst := regMR(t, r0, 8), regMR(t, r1, 8)
	if err := qp1.PostRecv(ibv.RecvWR{}); err != nil {
		t.Fatal(err)
	}
	err := qp0.PostSend(ibv.SendWR{
		Opcode:     ibv.OpRDMAWriteImm,
		SGList:     []ibv.SGE{src.SGEFor(0, 8)},
		RemoteAddr: dst.Addr(),
		RKey:       dst.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Time(time.Millisecond) // the write has landed
	var drainerDone, waiterDone sim.Time
	e := w.Engine()
	e.Spawn("drainer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		r1.WaitOn(p, func() bool { return set })
		drainerDone = p.Now()
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond + time.Nanosecond) // inside the drain
		r1.WaitOn(p, func() bool { return set })
		waiterDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want no error", err)
	}
	want := start + sim.Time(WCProcess+charge)
	if drainerDone != want || waiterDone != want {
		t.Fatalf("drainer done at %v, waiter at %v, want both at %v", drainerDone, waiterDone, want)
	}
}
