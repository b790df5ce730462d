package ibv

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestRDMAReadFetchesRemoteData(t *testing.T) {
	p := newPair(t, 8192)
	fill(p.recvBuf, 11) // the "remote" side's data (we read from recvQP's MR)
	err := p.sendQP.PostSend(SendWR{
		WRID:       3,
		Opcode:     OpRDMARead,
		SGList:     []SGE{p.sendMR.SGEFor(0, 4096)},
		RemoteAddr: p.recvMR.Addr() + 100,
		RKey:       p.recvMR.RKey(),
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.sendBuf[:4096], p.recvBuf[100:4196]) {
		t.Fatal("read data mismatch")
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 {
		t.Fatalf("polled %d completions", n)
	}
	if wcs[0].WRID != 3 || wcs[0].Status != StatusSuccess || wcs[0].Opcode != WCRDMARead || wcs[0].ByteLen != 4096 {
		t.Fatalf("wc = %+v", wcs[0])
	}
}

func TestRDMAReadRespectsRemoteBounds(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMARead,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
		RemoteAddr: p.recvMR.Addr() + 512, // runs past the remote region
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
		t.Fatalf("completion: n=%d wc=%+v", n, wcs[0])
	}
	if p.sendQP.State() != StateErr {
		t.Fatalf("requester state %v, want ERR", p.sendQP.State())
	}
}

func TestRDMAReadValidation(t *testing.T) {
	p := newPair(t, 1024)
	if err := p.sendQP.PostSend(SendWR{
		Opcode: OpRDMARead,
		SGList: []SGE{p.sendMR.SGEFor(0, 100)},
	}); !errors.Is(err, ErrNoRemote) {
		t.Fatalf("read without remote: %v", err)
	}
	if err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMARead,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Inline:     true,
	}); !errors.Is(err, ErrInlineTooLarge) {
		t.Fatalf("inline read: %v", err)
	}
}

func TestRDMAReadSlowerThanWriteOneWay(t *testing.T) {
	// A read costs an extra wire traversal (request there, data back), so
	// it must take longer than a same-size write.
	run := func(op Opcode) sim.Time {
		e := sim.NewEngine()
		f := fabric.New(e, fabric.DefaultConfig())
		p := newPairOn(t, e, f, 65536, QPConfig{})
		err := p.sendQP.PostSend(SendWR{
			Opcode:     op,
			SGList:     []SGE{p.sendMR.SGEFor(0, 65536)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
			Signaled:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var wcs [1]WC
		if p.sendCQ.Poll(wcs[:]) != 1 || wcs[0].Status != StatusSuccess {
			t.Fatal("no success completion")
		}
		return e.Now()
	}
	write := run(OpRDMAWrite)
	read := run(OpRDMARead)
	if read <= write {
		t.Fatalf("read (%v) not slower than write (%v)", read, write)
	}
}

func TestRDMAReadCountsAgainstWindow(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.DefaultConfig())
	p := newPairOn(t, e, f, 1<<20, QPConfig{MaxOutstanding: 2, MaxSendWR: 8})
	for i := 0; i < 6; i++ {
		err := p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMARead,
			SGList:     []SGE{p.sendMR.SGEFor(0, 4096)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
			Signaled:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if p.sendQP.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want window of 2", p.sendQP.Outstanding())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [8]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 6 {
		t.Fatalf("polled %d completions, want 6", n)
	}
}
