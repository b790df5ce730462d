package mpi

import (
	"testing"
	"time"

	"repro/internal/ibv"
	"repro/internal/sim"
)

// BenchmarkProgressDrain times Rank.Progress draining receive completions
// from the rank's CQs: rank 0 writes batches of 256 immediates to
// rank 1, and once a batch has landed rank 1's progress engine drains it
// (four CQ polls of 64). One op is one drained completion; posting and
// the wire time of each batch run with the timer stopped.
func BenchmarkProgressDrain(b *testing.B) {
	const batch = 256
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)
	drained := 0
	qp0, qp1 := qpPair(b, r0, r1, ibv.QPConfig{MaxSendWR: batch}, ibv.QPConfig{MaxRecvWR: batch},
		func(*sim.Proc, ibv.WC) {}, func(*sim.Proc, ibv.WC) { drained++ })
	mr0 := regMR(b, r0, 64)
	mr1 := regMR(b, r1, 64)
	send := ibv.SendWR{
		Opcode:     ibv.OpRDMAWriteImm,
		SGList:     []ibv.SGE{mr0.SGEFor(0, 8)},
		RemoteAddr: mr1.Addr(),
		RKey:       mr1.RKey(),
	}

	e := w.Engine()
	e.Spawn("drain", func(p *sim.Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := min(batch, b.N-done)
			b.StopTimer()
			for i := 0; i < n; i++ {
				if err := qp1.PostRecv(ibv.RecvWR{}); err != nil {
					b.Error(err)
					return
				}
				if err := qp0.PostSend(send); err != nil {
					b.Error(err)
					return
				}
			}
			p.Sleep(time.Millisecond) // the whole batch lands
			b.StartTimer()
			r1.Progress(p)
			done += n
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if drained != b.N {
		b.Fatalf("drained %d completions, want %d", drained, b.N)
	}
}
