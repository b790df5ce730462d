package ibv

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestFlowsBuiltOnFirstUse checks that connecting a QP pair builds no
// fabric flow: the requester's send flow appears at its first post, the
// responder's READ response flow at the first READ it answers, and a
// receive-only QP, like a QP that is never read from, holds none.
func TestFlowsBuiltOnFirstUse(t *testing.T) {
	p := newPair(t, 4096)
	a, b := p.sendQP, p.recvQP
	if a.flow != nil || a.respFlow != nil || b.flow != nil || b.respFlow != nil {
		t.Fatal("connected QPs hold flows before any post")
	}
	if err := b.PostRecv(RecvWR{WRID: 1}); err != nil {
		t.Fatal(err)
	}
	err := a.PostSend(SendWR{
		Opcode:     OpRDMAWriteImm,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
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
	if a.flow == nil {
		t.Error("a posting QP has no send flow")
	}
	if b.flow != nil {
		t.Error("a receive-only QP built a send flow")
	}
	if a.respFlow != nil || b.respFlow != nil {
		t.Error("a QP that was never read from built a response flow")
	}

	err = a.PostSend(SendWR{
		Opcode:     OpRDMARead,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
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
	if b.respFlow == nil {
		t.Error("the READ responder has no response flow")
	}
	if b.flow != nil || a.respFlow != nil {
		t.Error("a READ built a flow on the wrong side")
	}
}

// TestLazyFlowsRouteAsEager pins the flow identities on a fat-tree, where
// they pick the spine: four QP pairs between hosts on different edges each
// post a write and a READ. Every burst must cross exactly the links
// Topology.Route gives for the identities connect-time flows had (2·QPN
// for the requester's sends, 2·QPN+1 for the responses to it), and the
// per-link statistics must equal those of the same traffic on flows built
// up front with those identities.
func TestLazyFlowsRouteAsEager(t *testing.T) {
	const (
		pairs = 4
		size  = 8192
		srcID = 0
		dstID = 7 // fat-tree:k=4 puts hosts 0 and 7 on different edges
	)
	topo, err := fabric.ParseTopology("fat-tree:k=4")
	if err != nil {
		t.Fatal(err)
	}

	// Lazy: the verbs path.
	e := sim.NewEngine()
	f := fabric.New(e, fabric.Config{Topo: topo})
	hcas := make([]*HCA, topo.Hosts())
	for i := range hcas {
		hcas[i] = NewHCA(e, f, "h")
	}
	pda, pdb := hcas[srcID].Open().AllocPD(), hcas[dstID].Open().AllocPD()
	cqa, cqb := hcas[srcID].Open().CreateCQ(64), hcas[dstID].Open().CreateCQ(64)
	abuf, bbuf := make([]byte, size), make([]byte, size)
	amr, err := pda.RegMR(abuf)
	if err != nil {
		t.Fatal(err)
	}
	bmr, err := pdb.RegMR(bbuf)
	if err != nil {
		t.Fatal(err)
	}
	var qpns []uint32
	for i := 0; i < pairs; i++ {
		a, err := pda.CreateQP(QPConfig{SendCQ: cqa, RecvCQ: cqa})
		if err != nil {
			t.Fatal(err)
		}
		b, err := pdb.CreateQP(QPConfig{SendCQ: cqb, RecvCQ: cqb})
		if err != nil {
			t.Fatal(err)
		}
		connect(t, a, b)
		for _, op := range []Opcode{OpRDMAWrite, OpRDMARead} {
			err := a.PostSend(SendWR{
				Opcode:     op,
				SGList:     []SGE{amr.SGEFor(0, size)},
				RemoteAddr: bmr.Addr(),
				RKey:       bmr.RKey(),
				Signaled:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		qpns = append(qpns, a.QPN())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	lazy := f.LinkStats()

	// Each link carries one charge per burst routed over it: a write and
	// a READ request forward, a READ response back.
	want := make([]int64, topo.Links())
	for _, q := range qpns {
		for _, l := range topo.Route(srcID, dstID, uint64(q)*2) {
			want[l] += 2
		}
		for _, l := range topo.Route(dstID, srcID, uint64(q)*2+1) {
			want[l]++
		}
	}
	for i, s := range lazy {
		if s.Charges != want[i] {
			t.Errorf("link %d (%d→%d): %d charges, want %d", i, s.Link.From, s.Link.To, s.Charges, want[i])
		}
	}

	// Eager: the same messages on flows built before the run.
	e2 := sim.NewEngine()
	f2 := fabric.New(e2, fabric.Config{Topo: topo})
	ports := make([]*fabric.Port, topo.Hosts())
	for i := range ports {
		ports[i] = f2.NewPortOn(e2, "h")
	}
	for _, q := range qpns {
		fwd := f2.NewFlowID(ports[srcID], ports[dstID], uint64(q)*2)
		resp := f2.NewFlowID(ports[dstID], ports[srcID], uint64(q)*2+1)
		fwd.Send(fabric.Message{Bytes: size, OnAck: func(sim.Time) {}})
		fwd.Send(fabric.Message{Bytes: 16, OnDeliver: func(sim.Time) {
			resp.Send(fabric.Message{Bytes: size})
		}})
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if eager := f2.LinkStats(); !reflect.DeepEqual(lazy, eager) {
		t.Errorf("link statistics differ from flows built up front:\nlazy  %+v\neager %+v", lazy, eager)
	}
}
