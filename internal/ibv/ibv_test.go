package ibv

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// pair is a fully connected QP pair with registered buffers on both ends.
type pair struct {
	eng            *sim.Engine
	fab            *fabric.Fabric
	sendQP, recvQP *QP
	sendCQ, recvCQ *CQ
	sendMR, recvMR *MR
	sendBuf        []byte
	recvBuf        []byte
	sendPD, recvPD *PD
}

// newPair builds two HCAs, connects one QP pair, and registers bufBytes of
// send and receive memory.
func newPair(t *testing.T, bufBytes int) *pair {
	t.Helper()
	e := sim.NewEngine()
	f := fabric.New(e, fabric.Config{})
	return newPairOn(t, e, f, bufBytes, QPConfig{})
}

func newPairOn(t *testing.T, e *sim.Engine, f *fabric.Fabric, bufBytes int, cfg QPConfig) *pair {
	t.Helper()
	ha := NewHCA(e, f, "node-a")
	hb := NewHCA(e, f, "node-b")
	pda := ha.Open().AllocPD()
	pdb := hb.Open().AllocPD()

	p := &pair{
		eng: e, fab: f,
		sendCQ: ha.Open().CreateCQ(4096),
		recvCQ: hb.Open().CreateCQ(4096),
		sendPD: pda, recvPD: pdb,
		sendBuf: make([]byte, bufBytes),
		recvBuf: make([]byte, bufBytes),
	}
	var err error
	if p.sendMR, err = pda.RegMR(p.sendBuf); err != nil {
		t.Fatal(err)
	}
	if p.recvMR, err = pdb.RegMR(p.recvBuf); err != nil {
		t.Fatal(err)
	}
	sCfg, rCfg := cfg, cfg
	sCfg.SendCQ, sCfg.RecvCQ = p.sendCQ, ha.Open().CreateCQ(64)
	rCfg.SendCQ, rCfg.RecvCQ = hb.Open().CreateCQ(64), p.recvCQ
	if p.sendQP, err = pda.CreateQP(sCfg); err != nil {
		t.Fatal(err)
	}
	if p.recvQP, err = pdb.CreateQP(rCfg); err != nil {
		t.Fatal(err)
	}
	connect(t, p.sendQP, p.recvQP)
	return p
}

// connect brings both QPs to RTS against each other.
func connect(t *testing.T, a, b *QP) {
	t.Helper()
	for _, qp := range []*QP{a, b} {
		if err := qp.ToInit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ToRTR(b); err != nil {
		t.Fatal(err)
	}
	if err := b.ToRTR(a); err != nil {
		t.Fatal(err)
	}
	for _, qp := range []*QP{a, b} {
		if err := qp.ToRTS(); err != nil {
			t.Fatal(err)
		}
	}
}

func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)
	}
}

func TestRDMAWriteWithImmMovesDataAndImmediate(t *testing.T) {
	p := newPair(t, 8192)
	fill(p.sendBuf, 7)

	if err := p.recvQP.PostRecv(RecvWR{WRID: 42}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		WRID:       1,
		Opcode:     OpRDMAWriteImm,
		SGList:     []SGE{p.sendMR.SGEFor(0, 8192)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Imm:        0xdeadbeef,
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(p.recvBuf, p.sendBuf) {
		t.Fatal("receive buffer does not match send buffer")
	}
	var wcs [4]WC
	if n := p.recvCQ.Poll(wcs[:]); n != 1 {
		t.Fatalf("recv CQ polled %d completions, want 1", n)
	}
	wc := wcs[0]
	if wc.WRID != 42 || wc.Status != StatusSuccess || wc.Opcode != WCRecvRDMAWithImm {
		t.Fatalf("recv WC = %+v", wc)
	}
	if !wc.HasImm || wc.Imm != 0xdeadbeef {
		t.Fatalf("immediate = %#x (has=%v)", wc.Imm, wc.HasImm)
	}
	if wc.ByteLen != 8192 {
		t.Fatalf("ByteLen = %d", wc.ByteLen)
	}
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].WRID != 1 || wcs[0].Status != StatusSuccess {
		t.Fatalf("send completion: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRDMAWriteAtOffset(t *testing.T) {
	p := newPair(t, 4096)
	fill(p.sendBuf, 1)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(100, 200)},
		RemoteAddr: p.recvMR.Addr() + 1000,
		RKey:       p.recvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[1000:1200], p.sendBuf[100:300]) {
		t.Fatal("offset write landed wrong")
	}
	for i, b := range p.recvBuf[:1000] {
		if b != 0 {
			t.Fatalf("byte %d dirtied before target range", i)
		}
	}
	// Plain RDMA write generates no receive completion.
	if p.recvCQ.Len() != 0 {
		t.Fatal("plain RDMA write produced a receive completion")
	}
}

func TestUnsignaledSendProducesNoCompletion(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Signaled:   false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.sendCQ.Len() != 0 {
		t.Fatal("unsignaled WR generated a send completion")
	}
}

func TestMultiElementGather(t *testing.T) {
	p := newPair(t, 4096)
	fill(p.sendBuf, 3)
	err := p.sendQP.PostSend(SendWR{
		Opcode: OpRDMAWrite,
		SGList: []SGE{
			p.sendMR.SGEFor(0, 100),
			p.sendMR.SGEFor(2000, 50),
		},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, p.sendBuf[:100]...), p.sendBuf[2000:2050]...)
	if !bytes.Equal(p.recvBuf[:150], want) {
		t.Fatal("gathered payload mismatch")
	}
}

func TestTwoSidedSendRecv(t *testing.T) {
	p := newPair(t, 2048)
	fill(p.sendBuf, 9)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 5, SGList: []SGE{p.recvMR.SGEFor(0, 2048)}}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		WRID:     6,
		Opcode:   OpSend,
		SGList:   []SGE{p.sendMR.SGEFor(0, 500)},
		Signaled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[:500], p.sendBuf[:500]) {
		t.Fatal("send/recv payload mismatch")
	}
	var wcs [2]WC
	if n := p.recvCQ.Poll(wcs[:]); n != 1 || wcs[0].Opcode != WCRecv || wcs[0].ByteLen != 500 {
		t.Fatalf("recv completion: n=%d wc=%+v", n, wcs[0])
	}
}

func TestInOrderDeliveryAcrossWRs(t *testing.T) {
	p := newPair(t, 64)
	const n = 10
	for i := 0; i < n; i++ {
		if err := p.recvQP.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Each WR owns its byte of sendBuf: a posted WR's bytes are read when
	// they land, so the sender must not reuse them before the
	// WR completes.
	for i := 0; i < n; i++ {
		p.sendBuf[i] = byte(100 + i)
		err := p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWriteImm,
			SGList:     []SGE{p.sendMR.SGEFor(i, 1)},
			RemoteAddr: p.recvMR.Addr() + uint64(i),
			RKey:       p.recvMR.RKey(),
			Imm:        uint32(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	wcs := make([]WC, n)
	if got := p.recvCQ.Poll(wcs); got != n {
		t.Fatalf("polled %d, want %d", got, n)
	}
	for i, wc := range wcs {
		if wc.Imm != uint32(i) || wc.WRID != uint64(i) {
			t.Fatalf("completion %d out of order: %+v", i, wc)
		}
	}
	if !bytes.Equal(p.recvBuf[:n], p.sendBuf[:n]) {
		t.Fatalf("landed %v, want %v", p.recvBuf[:n], p.sendBuf[:n])
	}
}

// TestPayloadReadAtPlacement pins when a send or write reads its gather
// list: when its data lands at the responder, not when it is posted.
func TestPayloadReadAtPlacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Opcode
	}{
		{"write-imm", OpRDMAWriteImm},
		{"send", OpSend},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 128)
			if err := p.recvQP.PostRecv(RecvWR{SGList: []SGE{p.recvMR.SGEFor(0, 128)}}); err != nil {
				t.Fatal(err)
			}
			for i := range p.sendBuf {
				p.sendBuf[i] = 1
			}
			err := p.sendQP.PostSend(SendWR{
				Opcode: tc.op,
				// Two elements, so the send path's scatter crosses a
				// gather-segment boundary.
				SGList:     []SGE{p.sendMR.SGEFor(0, 40), p.sendMR.SGEFor(64, 60)},
				RemoteAddr: p.recvMR.Addr(),
				RKey:       p.recvMR.RKey(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.sendBuf {
				p.sendBuf[i] = 2
			}
			if err := p.eng.Run(); err != nil {
				t.Fatal(err)
			}
			for i, b := range p.recvBuf[:100] {
				if b != 2 {
					t.Fatalf("byte %d = %d, want 2", i, b)
				}
			}
			if p.recvBuf[100] != 0 {
				t.Fatal("payload overran its 100 bytes")
			}
		})
	}
}

// TestSendScatterAcrossSegments moves a SEND whose three gather elements
// and two scatter elements all split at different offsets.
func TestSendScatterAcrossSegments(t *testing.T) {
	p := newPair(t, 256)
	fill(p.sendBuf, 5)
	if err := p.recvQP.PostRecv(RecvWR{SGList: []SGE{p.recvMR.SGEFor(0, 7), p.recvMR.SGEFor(100, 50)}}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		Opcode: OpSend,
		SGList: []SGE{p.sendMR.SGEFor(10, 3), p.sendMR.SGEFor(50, 0), p.sendMR.SGEFor(200, 20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, p.sendBuf[10:13]...), p.sendBuf[200:220]...)
	got := append(append([]byte{}, p.recvBuf[0:7]...), p.recvBuf[100:116]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("scattered %v, want %v", got, want)
	}
	if p.recvBuf[116] != 0 {
		t.Fatal("scatter ran past the payload")
	}
}

// TestRecvQueueReusesCapacity keeps a receive queue from ever draining,
// as a credit ring does, and checks that its backing array stops growing.
func TestRecvQueueReusesCapacity(t *testing.T) {
	p := newPair(t, 64)
	const depth = 5
	for i := 0; i < depth; i++ {
		if err := p.recvQP.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := depth; i < 1000; i++ {
		rwr, ok := p.recvQP.consumeRecv()
		if !ok || rwr.WRID != uint64(i-depth) {
			t.Fatalf("consumed %+v, %v; want WRID %d", rwr, ok, i-depth)
		}
		if err := p.recvQP.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.recvQP.RecvQueueLen(); got != depth {
		t.Fatalf("RecvQueueLen = %d, want %d", got, depth)
	}
	if c := cap(p.recvQP.rq); c > 2*depth {
		t.Fatalf("receive queue capacity grew to %d for %d live WRs", c, depth)
	}
}

// TestQPSteadyStateZeroAllocs is the allocation gate on the verbs data
// path: once the QP's send context, receive queue and CQs are warm, a
// post-recv → write-imm → placement → ack → poll cycle allocates nothing,
// and posting copies no payload.
func TestQPSteadyStateZeroAllocs(t *testing.T) {
	p := newPair(t, 4096)
	sges := []SGE{p.sendMR.SGEFor(0, 2048), p.sendMR.SGEFor(2048, 2048)}
	var wcs [4]WC
	cycle := func() {
		if err := p.recvQP.PostRecv(RecvWR{WRID: 7}); err != nil {
			t.Fatal(err)
		}
		err := p.sendQP.PostSend(SendWR{
			WRID:       1,
			Opcode:     OpRDMAWriteImm,
			SGList:     sges,
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
			Imm:        3,
			Signaled:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.eng.Run(); err != nil {
			t.Fatal(err)
		}
		if n := p.recvCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusSuccess {
			t.Fatalf("recv poll: n=%d wc=%+v", n, wcs[0])
		}
		if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusSuccess {
			t.Fatalf("send poll: n=%d wc=%+v", n, wcs[0])
		}
	}
	cycle() // warm the context, the event free list and the queues
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("verbs post/deliver/poll cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestQPStateMachine(t *testing.T) {
	p := newPair(t, 64)
	// newPair's QPs are already RTS; build a fresh one for transitions.
	cq := p.sendPD.Context().CreateCQ(4)
	qp, err := p.sendPD.CreateQP(QPConfig{SendCQ: cq, RecvCQ: cq})
	if err != nil {
		t.Fatal(err)
	}
	if qp.State() != StateReset {
		t.Fatalf("fresh QP state %v", qp.State())
	}
	// Posting in RESET fails.
	if err := qp.PostRecv(RecvWR{}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostRecv in RESET: %v", err)
	}
	if err := qp.PostSend(SendWR{SGList: []SGE{{}}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostSend in RESET: %v", err)
	}
	// Skipping INIT fails.
	if err := qp.ToRTR(p.recvQP); !errors.Is(err, ErrBadState) {
		t.Fatalf("ToRTR from RESET: %v", err)
	}
	if err := qp.ToRTS(); !errors.Is(err, ErrBadState) {
		t.Fatalf("ToRTS from RESET: %v", err)
	}
	if err := qp.ToInit(); err != nil {
		t.Fatal(err)
	}
	// PostSend still fails in INIT; PostRecv is allowed.
	if err := qp.PostSend(SendWR{SGList: []SGE{{}}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostSend in INIT: %v", err)
	}
	if err := qp.ToRTR(nil); err == nil {
		t.Fatal("ToRTR(nil) accepted")
	}
	if err := qp.ToRTR(p.recvQP); err != nil {
		t.Fatal(err)
	}
	if err := qp.ToRTS(); err != nil {
		t.Fatal(err)
	}
	if qp.State() != StateRTS {
		t.Fatalf("state %v after ToRTS", qp.State())
	}
	if err := qp.ToInit(); !errors.Is(err, ErrBadState) {
		t.Fatalf("ToInit from RTS: %v", err)
	}
}

func TestPostSendValidation(t *testing.T) {
	p := newPair(t, 1024)
	base := SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	}
	cases := []struct {
		name string
		mut  func(*SendWR)
		want error
	}{
		{"empty sg list", func(w *SendWR) { w.SGList = nil }, ErrEmptySGList},
		{"missing rkey", func(w *SendWR) { w.RKey = 0 }, ErrNoRemote},
		{"missing raddr", func(w *SendWR) { w.RemoteAddr = 0 }, ErrNoRemote},
		{"bad lkey", func(w *SendWR) { w.SGList = []SGE{{Addr: p.sendMR.Addr(), Length: 10, LKey: 0xffff}} }, ErrBadLKey},
		{"sge overrun", func(w *SendWR) { w.SGList = []SGE{p.sendMR.SGEFor(1000, 100)} }, ErrMRBounds},
		{"sge past the end", func(w *SendWR) { w.SGList = []SGE{p.sendMR.SGEFor(1025, 1)} }, ErrMRBounds},
		{"sge at negative offset", func(w *SendWR) { w.SGList = []SGE{p.sendMR.SGEFor(-1, 16)} }, ErrMRBounds},
		{"sge before region", func(w *SendWR) { w.SGList = []SGE{{Addr: p.sendMR.Addr() - 1, Length: 10, LKey: p.sendMR.LKey()}} }, ErrMRBounds},
	}
	for _, c := range cases {
		wr := base
		c.mut(&wr)
		if err := p.sendQP.PostSend(wr); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestRemoteAccessErrorOnBadRKey(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		WRID:       9,
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       0x7777, // no such registration on the responder
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRemAccessErr {
		t.Fatalf("sender completion: n=%d wc=%+v", n, wcs[0])
	}
	if p.sendQP.State() != StateErr || p.recvQP.State() != StateErr {
		t.Fatalf("QP states after remote error: %v / %v", p.sendQP.State(), p.recvQP.State())
	}
}

func TestRemoteAccessErrorOnBounds(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
		RemoteAddr: p.recvMR.Addr() + 512, // write runs past the region
		RKey:       p.recvMR.RKey(),
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRemAccessErr {
		t.Fatalf("sender completion: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRNRWhenNoReceivePosted(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWriteImm,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRNRRetryExceeded {
		t.Fatalf("sender completion: n=%d wc=%+v", n, wcs[0])
	}
	// Data still landed (RDMA write part succeeded before the RNR).
	if p.recvBuf[0] != p.sendBuf[0] {
		t.Fatal("payload missing despite write-before-RNR semantics")
	}
}

func TestReceiveLengthError(t *testing.T) {
	p := newPair(t, 4096)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 3, SGList: []SGE{p.recvMR.SGEFor(0, 10)}}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		Opcode: OpSend,
		SGList: []SGE{p.sendMR.SGEFor(0, 100)}, // 100 B into a 10 B buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [4]WC
	n := p.recvCQ.Poll(wcs[:])
	if n < 1 || wcs[0].Status != StatusLenErr {
		t.Fatalf("receiver completion: n=%d wc=%+v", n, wcs[0])
	}
	if p.recvQP.State() != StateErr {
		t.Fatalf("responder state %v, want ERR", p.recvQP.State())
	}
}

func TestSQFullAndOutstandingWindow(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.Config{})
	p := newPairOn(t, e, f, 1<<20, QPConfig{MaxSendWR: MaxOutstanding + 2})
	post := func() error {
		return p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWrite,
			SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
		})
	}
	for i := 0; i < MaxOutstanding+2; i++ {
		if err := post(); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if got := p.sendQP.Outstanding(); got != MaxOutstanding {
		t.Fatalf("outstanding = %d, want window of %d", got, MaxOutstanding)
	}
	if err := post(); !errors.Is(err, ErrSQFull) {
		t.Fatalf("post %d: %v, want ErrSQFull", MaxOutstanding+3, err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.sendQP.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d", p.sendQP.Outstanding())
	}
	// Queue drained: posting works again.
	if err := post(); err != nil {
		t.Fatalf("post after drain: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRQFull(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.Config{})
	p := newPairOn(t, e, f, 64, QPConfig{MaxRecvWR: 2})
	for i := 0; i < 2; i++ {
		if err := p.recvQP.PostRecv(RecvWR{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.recvQP.PostRecv(RecvWR{}); !errors.Is(err, ErrRQFull) {
		t.Fatalf("overfull PostRecv: %v", err)
	}
}

func TestSetErrorFlushesQueues(t *testing.T) {
	p := newPair(t, 1024)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 11}); err != nil {
		t.Fatal(err)
	}
	if err := p.recvQP.PostRecv(RecvWR{WRID: 12}); err != nil {
		t.Fatal(err)
	}
	p.recvQP.SetError()
	var wcs [4]WC
	n := p.recvCQ.Poll(wcs[:])
	if n != 2 {
		t.Fatalf("flushed %d completions, want 2", n)
	}
	for i, wc := range wcs[:2] {
		if wc.Status != StatusWRFlushErr || wc.WRID != uint64(11+i) {
			t.Fatalf("flush WC %d = %+v", i, wc)
		}
	}
	if err := p.recvQP.PostRecv(RecvWR{}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostRecv after error: %v", err)
	}
}

func TestPostRecvValidatesSGEs(t *testing.T) {
	p := newPair(t, 64)
	err := p.recvQP.PostRecv(RecvWR{SGList: []SGE{{Addr: 1, Length: 10, LKey: 999}}})
	if !errors.Is(err, ErrBadLKey) {
		t.Fatalf("bad lkey recv post: %v", err)
	}
	err = p.recvQP.PostRecv(RecvWR{SGList: []SGE{p.recvMR.SGEFor(60, 10)}})
	if !errors.Is(err, ErrMRBounds) {
		t.Fatalf("out-of-bounds recv post: %v", err)
	}
}

func TestMRDereg(t *testing.T) {
	p := newPair(t, 1024)
	if err := p.recvMR.Dereg(); err != nil {
		t.Fatal(err)
	}
	if err := p.recvMR.Dereg(); !errors.Is(err, ErrDeregistered) {
		t.Fatalf("double dereg: %v", err)
	}
	// RDMA to the deregistered region must fail remotely.
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 10)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRemAccessErr {
		t.Fatalf("completion after dereg: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRegMRValidation(t *testing.T) {
	p := newPair(t, 64)
	if _, err := p.sendPD.RegMR(nil); err == nil {
		t.Fatal("registered empty buffer")
	}
}

func TestMRKeysAreDistinct(t *testing.T) {
	p := newPair(t, 64)
	mr2, err := p.sendPD.RegMR(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if mr2.LKey() == p.sendMR.LKey() || mr2.RKey() == p.sendMR.RKey() {
		t.Fatal("key collision between registrations")
	}
	if mr2.Addr() == p.sendMR.Addr() {
		t.Fatal("address collision between registrations")
	}
	if mr2.Len() != 64 {
		t.Fatalf("Len = %d", mr2.Len())
	}
}

func TestCQOverrunLatches(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.Config{})
	ha := NewHCA(e, f, "a")
	cq := ha.Open().CreateCQ(1)
	cq.push(WC{WRID: 1})
	cq.push(WC{WRID: 2}) // dropped
	if !cq.Overrun() {
		t.Fatal("overrun not latched")
	}
	var wcs [4]WC
	if n := cq.Poll(wcs[:]); n != 1 || wcs[0].WRID != 1 {
		t.Fatalf("poll after overrun: n=%d", n)
	}
}

func TestCreateQPValidation(t *testing.T) {
	p := newPair(t, 64)
	if _, err := p.sendPD.CreateQP(QPConfig{}); err == nil {
		t.Fatal("CreateQP without CQs accepted")
	}
	cq := p.sendPD.Context().CreateCQ(1)
	if _, err := p.sendPD.CreateQP(QPConfig{SendCQ: cq, RecvCQ: cq, MaxSendWR: -1}); err == nil {
		t.Fatal("CreateQP with negative SQ depth accepted")
	}
}

func TestStringers(t *testing.T) {
	for s := StatusSuccess; s <= StatusWRFlushErr+1; s++ {
		if s.String() == "" {
			t.Errorf("empty Status string for %d", s)
		}
	}
	for o := WCSend; o <= WCRecvRDMAWithImm+1; o++ {
		if o.String() == "" {
			t.Errorf("empty WCOpcode string for %d", o)
		}
	}
	for st := StateReset; st <= StateErr+1; st++ {
		if st.String() == "" {
			t.Errorf("empty QPState string for %d", st)
		}
	}
	for op := OpSend; op <= OpRDMAWriteImm+1; op++ {
		if op.String() == "" {
			t.Errorf("empty Opcode string for %d", op)
		}
	}
}

// TestMRKeyTableRejectsForeignKeys checks that the adapter's shared key
// table resolves only the exact key of a live MR: a local lookup also
// requires the poster's PD, and a remote one the responder QP's PD. Every
// adapter hands out the same first key and address, so the receiver's MR
// on the other HCA has the sender MR's very lkey and range: only the region
// SGEFor recorded tells them apart.
func TestMRKeyTableRejectsForeignKeys(t *testing.T) {
	p := newPair(t, 64)
	hca := p.sendPD.Context().HCA()
	otherMR, err := hca.Open().AllocPD().RegMR(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	deadMR, err := p.sendPD.RegMR(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := deadMR.Dereg(); err != nil {
		t.Fatal(err)
	}
	local := []struct {
		name string
		sge  SGE
	}{
		{"lkey of another PD on the same HCA", otherMR.SGEFor(0, 8)},
		{"rkey used as lkey", SGE{Addr: p.sendMR.Addr(), Length: 8, LKey: p.sendMR.RKey()}},
		{"lkey past the end of the table", SGE{Addr: p.sendMR.Addr(), Length: 8, LKey: deadMR.LKey() + 2}},
		{"lkey 0", SGE{Addr: p.sendMR.Addr(), Length: 8, LKey: 0}},
		{"lkey of a deregistered MR", deadMR.SGEFor(0, 8)},
		{"MR registered on another HCA", p.recvMR.SGEFor(0, 8)},
	}
	for _, c := range local {
		err := p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWrite,
			SGList:     []SGE{c.sge},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
		})
		if !errors.Is(err, ErrBadLKey) {
			t.Errorf("PostSend with %s: err = %v, want ErrBadLKey", c.name, err)
		}
		if err := p.sendQP.PostRecv(RecvWR{SGList: []SGE{c.sge}}); !errors.Is(err, ErrBadLKey) {
			t.Errorf("PostRecv with %s: err = %v, want ErrBadLKey", c.name, err)
		}
	}

	// Each remote case errors the pair, so each gets its own. warm first
	// writes with the responder's valid rkey, filling the last-hit cache.
	remote := []struct {
		name string
		warm bool
		rkey func(p *pair) uint32
	}{
		{"rkey of another PD on the same HCA", false, func(p *pair) uint32 {
			mr, err := p.recvPD.Context().HCA().Open().AllocPD().RegMR(make([]byte, 64))
			if err != nil {
				t.Fatal(err)
			}
			return mr.RKey()
		}},
		{"lkey used as rkey", true, func(p *pair) uint32 { return p.recvMR.LKey() }},
		{"rkey past the end of the table", true, func(p *pair) uint32 { return p.recvMR.RKey() + 2 }},
		{"rkey of a deregistered MR", true, func(p *pair) uint32 {
			if err := p.recvMR.Dereg(); err != nil {
				t.Fatal(err)
			}
			return p.recvMR.RKey()
		}},
	}
	for _, c := range remote {
		p := newPair(t, 64)
		write := func(rkey uint32) Status {
			t.Helper()
			err := p.sendQP.PostSend(SendWR{
				Opcode:     OpRDMAWrite,
				SGList:     []SGE{p.sendMR.SGEFor(0, 8)},
				RemoteAddr: p.recvMR.Addr(),
				RKey:       rkey,
				Signaled:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.eng.Run(); err != nil {
				t.Fatal(err)
			}
			var wcs [2]WC
			if n := p.sendCQ.Poll(wcs[:]); n != 1 {
				t.Fatalf("%s: %d completions, want 1", c.name, n)
			}
			return wcs[0].Status
		}
		if c.warm {
			if st := write(p.recvMR.RKey()); st != StatusSuccess {
				t.Fatalf("%s: warm-up write status %v", c.name, st)
			}
		}
		if st := write(c.rkey(p)); st != StatusRemAccessErr {
			t.Errorf("RDMA write with %s: status %v, want %v", c.name, st, StatusRemAccessErr)
		}
	}
}
