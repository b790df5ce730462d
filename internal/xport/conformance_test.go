// Conformance suite for the transport: connect/accept in either order,
// post-time registration bounds, typed misuse errors, immediate round
// trips, send-buffer ownership, outstanding-window enforcement, and
// in-order completion delivery — the contract the layers above (core
// strategies, ucx, pt2pt, mpipcl) rely on.
package xport_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// fixture is a two-rank world, one rank per node, with each rank's
// transport.
type fixture struct {
	w        *mpi.World
	r0, r1   *mpi.Rank
	pv0, pv1 *xport.Provider
}

func newFixture() *fixture {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	f := &fixture{w: w, r0: w.Rank(0), r1: w.Rank(1)}
	f.pv0, f.pv1 = f.r0.Transport(), f.r1.Transport()
	return f
}

// regMem registers a buffer or fails the test.
func regMem(t *testing.T, pv *xport.Provider, buf []byte) xport.Mem {
	t.Helper()
	m, err := pv.RegMem(buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newEP mints an endpoint with the given completion sink.
func newEP(t *testing.T, pv *xport.Provider, cfg xport.EndpointConfig) *xport.Endpoint {
	t.Helper()
	ep, err := pv.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func noComp(p *sim.Proc, c xport.Completion) {}

// connectPair cross-connects two endpoints.
func connectPair(t *testing.T, a, b *xport.Endpoint) {
	t.Helper()
	if err := a.Connect(b.Desc()); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(a.Desc()); err != nil {
		t.Fatal(err)
	}
}

// withFixture runs fn on a fresh fixture as a subtest named after the
// transport under test.
func withFixture(t *testing.T, fn func(t *testing.T, f *fixture)) {
	t.Run("verbs", func(t *testing.T) { fn(t, newFixture()) })
}

func TestConformanceConnectOrder(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		// An endpoint without a completion sink is a misconfiguration.
		if _, err := f.pv0.NewEndpoint(xport.EndpointConfig{}); err == nil {
			t.Error("NewEndpoint accepted nil OnCompletion")
		}

		// Posting before the pair is wired must fail, not hang or panic.
		lone := newEP(t, f.pv0, xport.EndpointConfig{OnCompletion: noComp})
		mr := regMem(t, f.pv0, make([]byte, 64))
		err := lone.PostSend(&xport.SendWR{
			Op:   xport.OpSend,
			Segs: []xport.Seg{{Mem: mr, Off: 0, Len: 64}},
		})
		if err == nil {
			t.Error("PostSend on an unconnected endpoint succeeded")
		}

		// Wiring must work in either connect order: pair A connects
		// initiator-first, pair B acceptor-first.
		got := 0
		sink := func(p *sim.Proc, c xport.Completion) {
			if c.Op == xport.CompRecv && c.OK() {
				got++
			}
		}
		a0 := newEP(t, f.pv0, xport.EndpointConfig{OnCompletion: noComp})
		a1 := newEP(t, f.pv1, xport.EndpointConfig{OnCompletion: sink})
		if err := a0.Connect(a1.Desc()); err != nil {
			t.Fatal(err)
		}
		if err := a1.Connect(a0.Desc()); err != nil {
			t.Fatal(err)
		}
		b0 := newEP(t, f.pv0, xport.EndpointConfig{OnCompletion: noComp})
		b1 := newEP(t, f.pv1, xport.EndpointConfig{OnCompletion: sink})
		if err := b1.Connect(b0.Desc()); err != nil {
			t.Fatal(err)
		}
		if err := b0.Connect(b1.Desc()); err != nil {
			t.Fatal(err)
		}

		rbuf := regMem(t, f.pv1, make([]byte, 128))
		for _, ep := range []*xport.Endpoint{a1, b1} {
			if err := ep.PostRecv(&xport.RecvWR{Segs: []xport.Seg{{Mem: rbuf, Off: 0, Len: 128}}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, ep := range []*xport.Endpoint{a0, b0} {
			if err := ep.PostSend(&xport.SendWR{
				Op:       xport.OpSend,
				Segs:     []xport.Seg{{Mem: mr, Off: 0, Len: 64}},
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
		mr := regMem(t, f.pv0, buf)
		if mr.Len() != 128 || len(mr.Bytes()) != 128 {
			t.Fatalf("Len = %d, Bytes len = %d", mr.Len(), len(mr.Bytes()))
		}

		ep0 := newEP(t, f.pv0, xport.EndpointConfig{OnCompletion: noComp})
		ep1 := newEP(t, f.pv1, xport.EndpointConfig{OnCompletion: noComp})
		connectPair(t, ep0, ep1)

		// A gather element escaping its region must be rejected at post
		// time, before anything reaches the wire.
		for _, seg := range []xport.Seg{
			{Mem: mr, Off: 64, Len: 128}, // runs past the end
			{Mem: mr, Off: 129, Len: 1},  // starts past the end
			{Mem: mr, Off: -1, Len: 16},  // negative offset
		} {
			err := ep0.PostSend(&xport.SendWR{Op: xport.OpSend, Segs: []xport.Seg{seg}})
			if err == nil {
				t.Errorf("out-of-region Seg{Off: %d, Len: %d} accepted", seg.Off, seg.Len)
			}
		}

		// The full region is valid.
		if err := ep0.PostSend(&xport.SendWR{
			Op:   xport.OpSend,
			Segs: []xport.Seg{{Mem: mr, Off: 0, Len: 128}},
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
	// pair mints a connected endpoint pair with the given queue depths.
	pair := func(t *testing.T, f *fixture, sendWR, recvWR int) (*xport.Endpoint, *xport.Endpoint) {
		ep0 := newEP(t, f.pv0, xport.EndpointConfig{MaxSendWR: sendWR, OnCompletion: noComp})
		ep1 := newEP(t, f.pv1, xport.EndpointConfig{MaxRecvWR: recvWR, OnCompletion: noComp})
		connectPair(t, ep0, ep1)
		return ep0, ep1
	}
	cases := []struct {
		name   string
		want   error
		misuse func(t *testing.T, f *fixture) error
	}{
		{"post before Connect", xport.ErrNotConnected, func(t *testing.T, f *fixture) error {
			lone := newEP(t, f.pv0, xport.EndpointConfig{OnCompletion: noComp})
			mr := regMem(t, f.pv0, make([]byte, 64))
			return lone.PostSend(&xport.SendWR{Op: xport.OpSend, Segs: []xport.Seg{{Mem: mr, Len: 64}}})
		}},
		{"segment past its region", xport.ErrMemBounds, func(t *testing.T, f *fixture) error {
			ep0, _ := pair(t, f, 0, 0)
			mr := regMem(t, f.pv0, make([]byte, 64))
			return ep0.PostSend(&xport.SendWR{Op: xport.OpSend, Segs: []xport.Seg{{Mem: mr, Off: 32, Len: 64}}})
		}},
		{"deregistered region", xport.ErrMemBounds, func(t *testing.T, f *fixture) error {
			ep0, _ := pair(t, f, 0, 0)
			mr := regMem(t, f.pv0, make([]byte, 64))
			if err := mr.Dereg(); err != nil {
				t.Fatal(err)
			}
			return ep0.PostSend(&xport.SendWR{Op: xport.OpSend, Segs: []xport.Seg{{Mem: mr, Len: 64}}})
		}},
		{"oversize inline send", xport.ErrTooLong, func(t *testing.T, f *fixture) error {
			ep0, _ := pair(t, f, 0, 0)
			n := ep0.MaxInline() + 1
			mr := regMem(t, f.pv0, make([]byte, n))
			return ep0.PostSend(&xport.SendWR{Op: xport.OpSend, Inline: true, Segs: []xport.Seg{{Mem: mr, Len: n}}})
		}},
		{"full send queue", xport.ErrQueueFull, func(t *testing.T, f *fixture) error {
			ep0, _ := pair(t, f, 2, 0)
			src := regMem(t, f.pv0, make([]byte, 64))
			dst := regMem(t, f.pv1, make([]byte, 64))
			return untilErr(3, func() error {
				return ep0.PostSend(&xport.SendWR{
					Op:         xport.OpWrite,
					Segs:       []xport.Seg{{Mem: src, Len: 64}},
					RemoteAddr: dst.Addr(),
					RKey:       dst.RKey(),
				})
			})
		}},
		{"full receive queue", xport.ErrQueueFull, func(t *testing.T, f *fixture) error {
			_, ep1 := pair(t, f, 0, 2)
			mr := regMem(t, f.pv1, make([]byte, 64))
			return untilErr(3, func() error {
				return ep1.PostRecv(&xport.RecvWR{Segs: []xport.Seg{{Mem: mr, Len: 64}}})
			})
		}},
		// Both HCAs hand out the same first keys and base address, so a
		// region of rank 1 would resolve to rank 0's own region on rank
		// 0's endpoint and put the wrong bytes on the wire.
		{"another rank's memory", xport.ErrForeignMem, func(t *testing.T, f *fixture) error {
			ep0, _ := pair(t, f, 0, 0)
			regMem(t, f.pv0, make([]byte, 64))
			theirs := regMem(t, f.pv1, make([]byte, 64))
			return ep0.PostSend(&xport.SendWR{Op: xport.OpSend, Segs: []xport.Seg{{Mem: theirs, Len: 64}}})
		}},
		{"another rank's memory on receive", xport.ErrForeignMem, func(t *testing.T, f *fixture) error {
			_, ep1 := pair(t, f, 0, 0)
			regMem(t, f.pv1, make([]byte, 64))
			theirs := regMem(t, f.pv0, make([]byte, 64))
			return ep1.PostRecv(&xport.RecvWR{Segs: []xport.Seg{{Mem: theirs, Len: 64}}})
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
		smr := regMem(t, f.pv0, src)
		dmr := regMem(t, f.pv1, dstBuf)

		var sendComp, recvComp []xport.Completion
		ep0 := newEP(t, f.pv0, xport.EndpointConfig{
			OnCompletion: func(p *sim.Proc, c xport.Completion) { sendComp = append(sendComp, c) },
		})
		ep1 := newEP(t, f.pv1, xport.EndpointConfig{
			OnCompletion: func(p *sim.Proc, c xport.Completion) { recvComp = append(recvComp, c) },
		})
		connectPair(t, ep0, ep1)

		if err := ep1.PostRecv(&xport.RecvWR{WRID: 9}); err != nil {
			t.Fatal(err)
		}
		if err := ep0.PostSend(&xport.SendWR{
			WRID:       3,
			Op:         xport.OpWriteImm,
			Segs:       []xport.Seg{{Mem: smr, Off: 0, Len: n}},
			RemoteAddr: dmr.Addr(),
			RKey:       dmr.RKey(),
			Imm:        0xdeadbeef,
			Signaled:   true,
		}); err != nil {
			t.Fatal(err)
		}
		err := f.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			if r.ID() == 1 {
				r.WaitOn(p, func() bool { return len(recvComp) == 1 })
			} else {
				r.WaitOn(p, func() bool { return len(sendComp) == 1 })
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		rc := recvComp[0]
		if rc.WRID != 9 || !rc.OK() || rc.Op != xport.CompRecvImm {
			t.Fatalf("recv completion %+v", rc)
		}
		if !rc.HasImm || rc.Imm != 0xdeadbeef {
			t.Fatalf("immediate = %#x (HasImm=%v), want 0xdeadbeef", rc.Imm, rc.HasImm)
		}
		if rc.Bytes != n {
			t.Fatalf("recv bytes = %d, want %d", rc.Bytes, n)
		}
		sc := sendComp[0]
		if sc.WRID != 3 || !sc.OK() || sc.Op != xport.CompWrite {
			t.Fatalf("send completion %+v", sc)
		}
		if !bytes.Equal(dstBuf, src) {
			t.Fatal("payload did not land in the remote region")
		}
	})
}

// TestConformanceBufferOwnership pins the SendWR buffer contract: an
// inline WR copies its payload when it is posted, so a later
// write to the buffer is invisible to the receiver; a non-inline WR reads
// its payload when it lands, so a write between post and placement shows.
func TestConformanceBufferOwnership(t *testing.T) {
	const n = 64
	for _, op := range []xport.Op{xport.OpWriteImm, xport.OpSend} {
		for _, inline := range []bool{true, false} {
			name := op.String() + "/non-inline"
			want := byte(2)
			if inline {
				name, want = op.String()+"/inline", 1
			}
			t.Run(name, func(t *testing.T) {
				withFixture(t, func(t *testing.T, f *fixture) {
					src := bytes.Repeat([]byte{1}, n)
					dstBuf := make([]byte, n)
					smr := regMem(t, f.pv0, src)
					dmr := regMem(t, f.pv1, dstBuf)
					landed := false
					ep0 := newEP(t, f.pv0, xport.EndpointConfig{OnCompletion: noComp})
					ep1 := newEP(t, f.pv1, xport.EndpointConfig{
						OnCompletion: func(p *sim.Proc, c xport.Completion) {
							if !c.OK() || c.Bytes != n {
								t.Errorf("recv completion %+v", c)
							}
							landed = true
						},
					})
					connectPair(t, ep0, ep1)
					if err := ep1.PostRecv(&xport.RecvWR{Segs: []xport.Seg{{Mem: dmr, Off: 0, Len: n}}}); err != nil {
						t.Fatal(err)
					}
					if err := ep0.PostSend(&xport.SendWR{
						Op:         op,
						Segs:       []xport.Seg{{Mem: smr, Off: 0, Len: n}},
						RemoteAddr: dmr.Addr(),
						RKey:       dmr.RKey(),
						Inline:     inline,
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
					if !bytes.Equal(dstBuf, bytes.Repeat([]byte{want}, n)) {
						t.Fatalf("receiver saw %v, want all %d", dstBuf[:8], want)
					}
				})
			})
		}
	}
}

func TestConformanceOutstandingWindow(t *testing.T) {
	withFixture(t, func(t *testing.T, f *fixture) {
		const (
			window = 2
			posts  = 12
			size   = 4096
		)
		src := regMem(t, f.pv0, make([]byte, size))
		dst := regMem(t, f.pv1, make([]byte, size))

		done := 0
		maxSeen := 0
		var ep0 *xport.Endpoint
		ep0 = newEP(t, f.pv0, xport.EndpointConfig{
			MaxOutstanding: window,
			OnCompletion: func(p *sim.Proc, c xport.Completion) {
				done++
				if o := ep0.Outstanding(); o > maxSeen {
					maxSeen = o
				}
			},
		})
		ep1 := newEP(t, f.pv1, xport.EndpointConfig{OnCompletion: noComp})
		connectPair(t, ep0, ep1)

		for i := 0; i < posts; i++ {
			if err := ep0.PostSend(&xport.SendWR{
				WRID:       uint64(i),
				Op:         xport.OpWrite,
				Segs:       []xport.Seg{{Mem: src, Off: 0, Len: size}},
				RemoteAddr: dst.Addr(),
				RKey:       dst.RKey(),
				Signaled:   true,
			}); err != nil {
				t.Fatal(err)
			}
			if o := ep0.Outstanding(); o > window {
				t.Fatalf("after post %d: Outstanding = %d exceeds window %d", i, o, window)
			}
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
		smr := regMem(t, f.pv0, src)

		var sendOrder, recvOrder []uint64
		ep0 := newEP(t, f.pv0, xport.EndpointConfig{
			OnCompletion: func(p *sim.Proc, c xport.Completion) {
				if !c.OK() {
					t.Errorf("send completion %+v", c)
				}
				sendOrder = append(sendOrder, c.WRID)
			},
		})
		slots := make([][]byte, msgs)
		ep1 := newEP(t, f.pv1, xport.EndpointConfig{
			OnCompletion: func(p *sim.Proc, c xport.Completion) {
				if !c.OK() || c.Op != xport.CompRecv {
					t.Errorf("recv completion %+v", c)
				}
				recvOrder = append(recvOrder, c.WRID)
			},
		})
		connectPair(t, ep0, ep1)

		for i := 0; i < msgs; i++ {
			slots[i] = make([]byte, 256)
			rmr := regMem(t, f.pv1, slots[i])
			if err := ep1.PostRecv(&xport.RecvWR{
				WRID: uint64(200 + i),
				Segs: []xport.Seg{{Mem: rmr, Off: 0, Len: 256}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if ep1.RecvQueueLen() != msgs {
			t.Fatalf("RecvQueueLen = %d after posting %d", ep1.RecvQueueLen(), msgs)
		}
		for i := 0; i < msgs; i++ {
			if err := ep0.PostSend(&xport.SendWR{
				WRID:     uint64(100 + i),
				Op:       xport.OpSend,
				Segs:     []xport.Seg{{Mem: smr, Off: 256 * i, Len: 256}},
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
