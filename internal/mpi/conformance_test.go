// Conformance suite for the simulated verbs device as the layers above
// (core strategies, ucx) use it: queue pairs created on a rank's device
// context with mpi.Rank.CreateQP, memory registered on mpi.Rank.PD,
// completions delivered through mpi.Rank.Progress. It pins
// connect in either order, post-time registration bounds, typed misuse
// errors, immediate round trips, send-buffer ownership,
// outstanding-window enforcement, and in-order completion delivery.
// It drives the rank only through its exported surface, so it lives in the
// external test package.
package mpi_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ibv"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// fixture is a two-rank world, one rank per node.
type fixture struct {
	w      *mpi.World
	r0, r1 *mpi.Rank
}

func newFixture() *fixture {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	return &fixture{w: w, r0: w.Rank(0), r1: w.Rank(1)}
}

// regMem registers a buffer on the rank's PD or fails the test.
func regMem(t *testing.T, r *mpi.Rank, buf []byte) *ibv.MR {
	t.Helper()
	mr, err := r.PD().RegMR(buf)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// newQP creates a queue pair on the rank with the given completion handler.
func newQP(t *testing.T, r *mpi.Rank, cfg ibv.QPConfig, onWC func(p *sim.Proc, wc ibv.WC)) *ibv.QP {
	t.Helper()
	qp, err := r.CreateQP(cfg, onWC)
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

func noWC(p *sim.Proc, wc ibv.WC) {}

func ok(wc ibv.WC) bool { return wc.Status == ibv.StatusSuccess }

// connectPair cross-connects two queue pairs.
func connectPair(t *testing.T, a, b *ibv.QP) {
	t.Helper()
	if err := a.Connect(b); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(a); err != nil {
		t.Fatal(err)
	}
}

// withFixture runs fn on a fresh fixture as a subtest named after the
// device under test.
func withFixture(t *testing.T, fn func(t *testing.T, f *fixture)) {
	t.Run("verbs", func(t *testing.T) { fn(t, newFixture()) })
}

func TestConformanceConnectOrder(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		// A queue pair without a completion handler is a misconfiguration.
		if _, err := f.r0.CreateQP(ibv.QPConfig{}, nil); err == nil {
			t.Error("CreateQP accepted a nil completion handler")
		}

		// Posting before the pair is wired must fail, not hang or panic.
		lone := newQP(t, f.r0, ibv.QPConfig{}, noWC)
		mr := regMem(t, f.r0, make([]byte, 64))
		err := lone.PostSend(ibv.SendWR{
			Opcode: ibv.OpSend,
			SGList: []ibv.SGE{mr.SGEFor(0, 64)},
		})
		if err == nil {
			t.Error("PostSend on an unconnected queue pair succeeded")
		}

		// Wiring must work in either connect order: pair A connects
		// initiator-first, pair B acceptor-first.
		got := 0
		sink := func(p *sim.Proc, wc ibv.WC) {
			if wc.Opcode == ibv.WCRecv && ok(wc) {
				got++
			}
		}
		a0 := newQP(t, f.r0, ibv.QPConfig{}, noWC)
		a1 := newQP(t, f.r1, ibv.QPConfig{}, sink)
		if err := a0.Connect(a1); err != nil {
			t.Fatal(err)
		}
		if err := a1.Connect(a0); err != nil {
			t.Fatal(err)
		}
		b0 := newQP(t, f.r0, ibv.QPConfig{}, noWC)
		b1 := newQP(t, f.r1, ibv.QPConfig{}, sink)
		if err := b1.Connect(b0); err != nil {
			t.Fatal(err)
		}
		if err := b0.Connect(b1); err != nil {
			t.Fatal(err)
		}

		rbuf := regMem(t, f.r1, make([]byte, 128))
		for _, qp := range []*ibv.QP{a1, b1} {
			if err := qp.PostRecv(ibv.RecvWR{SGList: []ibv.SGE{rbuf.SGEFor(0, 128)}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, qp := range []*ibv.QP{a0, b0} {
			if err := qp.PostSend(ibv.SendWR{
				Opcode:   ibv.OpSend,
				SGList:   []ibv.SGE{mr.SGEFor(0, 64)},
				Signaled: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		err = f.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			if r.ID() == 1 {
				r.WaitOn(p, func() bool { return got == 2 })
			} else {
				p.Sleep(time.Millisecond)
				r.Progress(p) // reap send-side completions
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Fatalf("delivered %d messages, want 2", got)
		}
	})
}

func TestConformanceRegistrationBounds(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		buf := make([]byte, 128)
		mr := regMem(t, f.r0, buf)
		if mr.Len() != 128 || len(mr.Bytes()) != 128 {
			t.Fatalf("Len = %d, Bytes len = %d", mr.Len(), len(mr.Bytes()))
		}

		qp0 := newQP(t, f.r0, ibv.QPConfig{}, noWC)
		qp1 := newQP(t, f.r1, ibv.QPConfig{}, noWC)
		connectPair(t, qp0, qp1)

		// A gather element escaping its region must be rejected at post
		// time, before anything reaches the wire.
		for _, seg := range []struct{ off, n int }{
			{64, 128}, // runs past the end
			{129, 1},  // starts past the end
			{-1, 16},  // negative offset
		} {
			err := qp0.PostSend(ibv.SendWR{Opcode: ibv.OpSend, SGList: []ibv.SGE{mr.SGEFor(seg.off, seg.n)}})
			if err == nil {
				t.Errorf("out-of-region SGEFor(%d, %d) accepted", seg.off, seg.n)
			}
		}

		// The full region is valid.
		if err := qp0.PostSend(ibv.SendWR{
			Opcode: ibv.OpSend,
			SGList: []ibv.SGE{mr.SGEFor(0, 128)},
		}); err != nil {
			t.Errorf("full-region send rejected: %v", err)
		}
	})
}

// TestConformanceMisuseErrors pins the typed-error contract: every misuse
// fails with its error class, so callers test it with errors.Is.
func TestConformanceMisuseErrors(t *testing.T) {
	// untilErr repeats post n times and returns the first error.
	untilErr := func(n int, post func() error) error {
		for i := 0; i < n; i++ {
			if err := post(); err != nil {
				return err
			}
		}
		return nil
	}
	// pair mints a connected queue-pair pair with the given queue depths.
	pair := func(t *testing.T, f *fixture, sendWR, recvWR int) (*ibv.QP, *ibv.QP) {
		qp0 := newQP(t, f.r0, ibv.QPConfig{MaxSendWR: sendWR}, noWC)
		qp1 := newQP(t, f.r1, ibv.QPConfig{MaxRecvWR: recvWR}, noWC)
		connectPair(t, qp0, qp1)
		return qp0, qp1
	}
	send := func(sges ...ibv.SGE) ibv.SendWR { return ibv.SendWR{Opcode: ibv.OpSend, SGList: sges} }
	cases := []struct {
		name   string
		want   error
		misuse func(t *testing.T, f *fixture) error
	}{
		{"post before Connect", ibv.ErrBadState, func(t *testing.T, f *fixture) error {
			lone := newQP(t, f.r0, ibv.QPConfig{}, noWC)
			mr := regMem(t, f.r0, make([]byte, 64))
			return lone.PostSend(send(mr.SGEFor(0, 64)))
		}},
		{"segment past its region", ibv.ErrMRBounds, func(t *testing.T, f *fixture) error {
			qp0, _ := pair(t, f, 0, 0)
			mr := regMem(t, f.r0, make([]byte, 64))
			return qp0.PostSend(send(mr.SGEFor(32, 64)))
		}},
		// A deregistered region's lkey no longer names anything.
		{"deregistered region", ibv.ErrBadLKey, func(t *testing.T, f *fixture) error {
			qp0, _ := pair(t, f, 0, 0)
			mr := regMem(t, f.r0, make([]byte, 64))
			if err := mr.Dereg(); err != nil {
				t.Fatal(err)
			}
			return qp0.PostSend(send(mr.SGEFor(0, 64)))
		}},
		{"full send queue", ibv.ErrSQFull, func(t *testing.T, f *fixture) error {
			qp0, _ := pair(t, f, 2, 0)
			src := regMem(t, f.r0, make([]byte, 64))
			dst := regMem(t, f.r1, make([]byte, 64))
			return untilErr(3, func() error {
				return qp0.PostSend(ibv.SendWR{
					Opcode:     ibv.OpRDMAWrite,
					SGList:     []ibv.SGE{src.SGEFor(0, 64)},
					RemoteAddr: dst.Addr(),
					RKey:       dst.RKey(),
				})
			})
		}},
		{"full receive queue", ibv.ErrRQFull, func(t *testing.T, f *fixture) error {
			_, qp1 := pair(t, f, 0, 2)
			mr := regMem(t, f.r1, make([]byte, 64))
			return untilErr(3, func() error {
				return qp1.PostRecv(ibv.RecvWR{SGList: []ibv.SGE{mr.SGEFor(0, 64)}})
			})
		}},
		// Both HCAs hand out the same first keys and base address, so a
		// region of rank 1 would resolve to rank 0's own region on rank
		// 0's queue pair and put the wrong bytes on the wire.
		{"another rank's memory", ibv.ErrBadLKey, func(t *testing.T, f *fixture) error {
			qp0, _ := pair(t, f, 0, 0)
			regMem(t, f.r0, make([]byte, 64))
			theirs := regMem(t, f.r1, make([]byte, 64))
			return qp0.PostSend(send(theirs.SGEFor(0, 64)))
		}},
		{"another rank's memory on receive", ibv.ErrBadLKey, func(t *testing.T, f *fixture) error {
			_, qp1 := pair(t, f, 0, 0)
			regMem(t, f.r1, make([]byte, 64))
			theirs := regMem(t, f.r0, make([]byte, 64))
			return qp1.PostRecv(ibv.RecvWR{SGList: []ibv.SGE{theirs.SGEFor(0, 64)}})
		}},
	}
	for _, tc := range cases {
		t.Run("verbs/"+tc.name, func(t *testing.T) {
			err := tc.misuse(t, newFixture())
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want one wrapping %v", err, tc.want)
			}
		})
	}
}

func TestConformanceImmRoundTrip(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		const n = 1024
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		dstBuf := make([]byte, n)
		smr := regMem(t, f.r0, src)
		dmr := regMem(t, f.r1, dstBuf)

		var sendWC, recvWC []ibv.WC
		qp0 := newQP(t, f.r0, ibv.QPConfig{}, func(p *sim.Proc, wc ibv.WC) { sendWC = append(sendWC, wc) })
		qp1 := newQP(t, f.r1, ibv.QPConfig{}, func(p *sim.Proc, wc ibv.WC) { recvWC = append(recvWC, wc) })
		connectPair(t, qp0, qp1)

		if err := qp1.PostRecv(ibv.RecvWR{WRID: 9}); err != nil {
			t.Fatal(err)
		}
		if err := qp0.PostSend(ibv.SendWR{
			WRID:       3,
			Opcode:     ibv.OpRDMAWriteImm,
			SGList:     []ibv.SGE{smr.SGEFor(0, n)},
			RemoteAddr: dmr.Addr(),
			RKey:       dmr.RKey(),
			Imm:        0xdeadbeef,
			Signaled:   true,
		}); err != nil {
			t.Fatal(err)
		}
		err := f.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			if r.ID() == 1 {
				r.WaitOn(p, func() bool { return len(recvWC) == 1 })
			} else {
				r.WaitOn(p, func() bool { return len(sendWC) == 1 })
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		rc := recvWC[0]
		if rc.WRID != 9 || !ok(rc) || rc.Opcode != ibv.WCRecvRDMAWithImm {
			t.Fatalf("recv completion %+v", rc)
		}
		if !rc.HasImm || rc.Imm != 0xdeadbeef {
			t.Fatalf("immediate = %#x (HasImm=%v), want 0xdeadbeef", rc.Imm, rc.HasImm)
		}
		if rc.ByteLen != n {
			t.Fatalf("recv bytes = %d, want %d", rc.ByteLen, n)
		}
		sc := sendWC[0]
		if sc.WRID != 3 || !ok(sc) || sc.Opcode != ibv.WCRDMAWrite {
			t.Fatalf("send completion %+v", sc)
		}
		if !bytes.Equal(dstBuf, src) {
			t.Fatal("payload did not land in the remote region")
		}
	})
}

// TestConformanceBufferOwnership pins the SendWR buffer contract: a send
// or write reads its payload when it lands, so a write to the buffer
// between post and placement shows at the receiver.
func TestConformanceBufferOwnership(t *testing.T) {
	const n = 64
	for _, op := range []struct {
		name string
		code ibv.Opcode
	}{{"WRITE_WITH_IMM", ibv.OpRDMAWriteImm}, {"SEND", ibv.OpSend}} {
		t.Run(op.name+"/non-inline", func(t *testing.T) {
			withFixture(t, func(t *testing.T, f *fixture) {
				src := bytes.Repeat([]byte{1}, n)
				dstBuf := make([]byte, n)
				smr := regMem(t, f.r0, src)
				dmr := regMem(t, f.r1, dstBuf)
				landed := false
				qp0 := newQP(t, f.r0, ibv.QPConfig{}, noWC)
				qp1 := newQP(t, f.r1, ibv.QPConfig{}, func(p *sim.Proc, wc ibv.WC) {
					if !ok(wc) || wc.ByteLen != n {
						t.Errorf("recv completion %+v", wc)
					}
					landed = true
				})
				connectPair(t, qp0, qp1)
				if err := qp1.PostRecv(ibv.RecvWR{SGList: []ibv.SGE{dmr.SGEFor(0, n)}}); err != nil {
					t.Fatal(err)
				}
				if err := qp0.PostSend(ibv.SendWR{
					Opcode:     op.code,
					SGList:     []ibv.SGE{smr.SGEFor(0, n)},
					RemoteAddr: dmr.Addr(),
					RKey:       dmr.RKey(),
				}); err != nil {
					t.Fatal(err)
				}
				for i := range src {
					src[i] = 2
				}
				err := f.w.Run(func(p *sim.Proc, r *mpi.Rank) {
					if r.ID() == 1 {
						r.WaitOn(p, func() bool { return landed })
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dstBuf, bytes.Repeat([]byte{2}, n)) {
					t.Fatalf("receiver saw %v, want all 2", dstBuf[:8])
				}
			})
		})
	}
}

func TestConformanceOutstandingWindow(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		const (
			window = ibv.MaxOutstanding
			posts  = window + 12
			size   = 4096
		)
		src := regMem(t, f.r0, make([]byte, size))
		dst := regMem(t, f.r1, make([]byte, size))

		done := 0
		maxSeen := 0
		var qp0 *ibv.QP
		qp0 = newQP(t, f.r0, ibv.QPConfig{}, func(p *sim.Proc, wc ibv.WC) {
			done++
			if o := qp0.Outstanding(); o > maxSeen {
				maxSeen = o
			}
		})
		qp1 := newQP(t, f.r1, ibv.QPConfig{}, noWC)
		connectPair(t, qp0, qp1)

		for i := 0; i < posts; i++ {
			if err := qp0.PostSend(ibv.SendWR{
				WRID:       uint64(i),
				Opcode:     ibv.OpRDMAWrite,
				SGList:     []ibv.SGE{src.SGEFor(0, size)},
				RemoteAddr: dst.Addr(),
				RKey:       dst.RKey(),
				Signaled:   true,
			}); err != nil {
				t.Fatal(err)
			}
			if o := qp0.Outstanding(); o > window {
				t.Fatalf("after post %d: Outstanding = %d exceeds window %d", i, o, window)
			}
		}
		// More posts than slots: the window is full and the rest wait.
		if o := qp0.Outstanding(); o != window {
			t.Fatalf("after %d posts: Outstanding = %d, want the full window %d", posts, o, window)
		}
		err := f.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			if r.ID() == 0 {
				r.WaitOn(p, func() bool { return done == posts })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if done != posts {
			t.Fatalf("completed %d writes, want %d", done, posts)
		}
		if maxSeen > window {
			t.Fatalf("window peaked at %d, cap is %d", maxSeen, window)
		}
	})
}

func TestConformanceCompletionOrdering(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		const msgs = 8
		src := make([]byte, 256*msgs)
		for i := range src {
			src[i] = byte(i)
		}
		smr := regMem(t, f.r0, src)

		var sendOrder, recvOrder []uint64
		qp0 := newQP(t, f.r0, ibv.QPConfig{}, func(p *sim.Proc, wc ibv.WC) {
			if !ok(wc) {
				t.Errorf("send completion %+v", wc)
			}
			sendOrder = append(sendOrder, wc.WRID)
		})
		slots := make([][]byte, msgs)
		qp1 := newQP(t, f.r1, ibv.QPConfig{}, func(p *sim.Proc, wc ibv.WC) {
			if !ok(wc) || wc.Opcode != ibv.WCRecv {
				t.Errorf("recv completion %+v", wc)
			}
			recvOrder = append(recvOrder, wc.WRID)
		})
		connectPair(t, qp0, qp1)

		for i := 0; i < msgs; i++ {
			slots[i] = make([]byte, 256)
			rmr := regMem(t, f.r1, slots[i])
			if err := qp1.PostRecv(ibv.RecvWR{
				WRID:   uint64(200 + i),
				SGList: []ibv.SGE{rmr.SGEFor(0, 256)},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if qp1.RecvQueueLen() != msgs {
			t.Fatalf("RecvQueueLen = %d after posting %d", qp1.RecvQueueLen(), msgs)
		}
		for i := 0; i < msgs; i++ {
			if err := qp0.PostSend(ibv.SendWR{
				WRID:     uint64(100 + i),
				Opcode:   ibv.OpSend,
				SGList:   []ibv.SGE{smr.SGEFor(256*i, 256)},
				Signaled: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		err := f.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			if r.ID() == 0 {
				r.WaitOn(p, func() bool { return len(sendOrder) == msgs })
			} else {
				r.WaitOn(p, func() bool { return len(recvOrder) == msgs })
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		// Reliable-connection semantics: completions pop in posted order on
		// both sides, and message k lands in receive slot k.
		for i := 0; i < msgs; i++ {
			if sendOrder[i] != uint64(100+i) {
				t.Fatalf("send completion order %v", sendOrder)
			}
			if recvOrder[i] != uint64(200+i) {
				t.Fatalf("recv completion order %v", recvOrder)
			}
			if !bytes.Equal(slots[i], src[256*i:256*(i+1)]) {
				t.Fatalf("message %d scattered into the wrong slot", i)
			}
		}
	})
}
