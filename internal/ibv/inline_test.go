package ibv

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestInlineSendDeliversData(t *testing.T) {
	p := newPair(t, 4096)
	fill(p.sendBuf, 5)
	if err := p.recvQP.PostRecv(RecvWR{}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWriteImm,
		SGList:     []SGE{p.sendMR.SGEFor(0, 128)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Imm:        1,
		Inline:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if p.recvBuf[i] != p.sendBuf[i] {
			t.Fatal("inline payload mismatch")
		}
	}
}

func TestInlineTooLargeRejected(t *testing.T) {
	p := newPair(t, 4096)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)}, // > default 220
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Inline:     true,
	})
	if !errors.Is(err, ErrInlineTooLarge) {
		t.Fatalf("err = %v, want ErrInlineTooLarge", err)
	}
}

func TestInlineIsFasterForSmallMessages(t *testing.T) {
	// The future-work feature the paper names: inlining skips the WQE
	// fetch, so a small message completes sooner.
	run := func(inline bool) sim.Time {
		e := sim.NewEngine()
		f := fabric.New(e, fabric.Config{})
		p := newPairOn(t, e, f, 256, QPConfig{})
		var at sim.Time
		err := p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWrite,
			SGList:     []SGE{p.sendMR.SGEFor(0, 64)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
			Inline:     inline,
			Signaled:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.After(0, func() {}) // ensure at least one event
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var wcs [1]WC
		if n := p.sendCQ.Poll(wcs[:]); n != 1 {
			t.Fatal("no completion")
		}
		at = e.Now()
		return at
	}
	plain := run(false)
	inlined := run(true)
	if inlined >= plain {
		t.Fatalf("inline (%v) not faster than plain (%v)", inlined, plain)
	}
	want := fabric.WRProcess - fabric.InlineWRProcess
	if got := plain - inlined; got != sim.Time(want) {
		t.Fatalf("inline saved %v, want exactly WRProcess-InlineWRProcess = %v", got, want)
	}
}

func TestMaxInlineConfigurable(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.Config{})
	p := newPairOn(t, e, f, 4096, QPConfig{MaxInline: 1024})
	if p.sendQP.MaxInline() != 1024 {
		t.Fatalf("MaxInline = %d", p.sendQP.MaxInline())
	}
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Inline:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
