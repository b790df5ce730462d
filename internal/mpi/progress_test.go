package mpi

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/xport"
)

// BenchmarkProgressDrain times Rank.Progress draining receive completions
// over the verbs transport: rank 0 writes batches of 256 immediates to
// rank 1, and once a batch has landed rank 1's progress engine drains it
// (four CQ polls of 64). One op is one drained completion; posting and
// the wire time of each batch run with the timer stopped.
func BenchmarkProgressDrain(b *testing.B) {
	const batch = 256
	w := twoNodeWorld()
	r0, r1 := w.Rank(0), w.Rank(1)
	pv0, pv1 := r0.Transport(), r1.Transport()
	mr0, err := pv0.RegMem(make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	mr1, err := pv1.RegMem(make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	drained := 0
	ep0, err := pv0.NewEndpoint(xport.EndpointConfig{
		MaxSendWR:    batch,
		OnCompletion: func(*sim.Proc, xport.Completion) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	ep1, err := pv1.NewEndpoint(xport.EndpointConfig{
		MaxRecvWR:    batch,
		OnCompletion: func(*sim.Proc, xport.Completion) { drained++ },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := ep0.Connect(ep1.Desc()); err != nil {
		b.Fatal(err)
	}
	if err := ep1.Connect(ep0.Desc()); err != nil {
		b.Fatal(err)
	}
	recv := xport.RecvWR{}
	send := xport.SendWR{
		Op:         xport.OpWriteImm,
		Segs:       []xport.Seg{{Mem: mr0, Len: 8}},
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
				if err := ep1.PostRecv(&recv); err != nil {
					b.Error(err)
					return
				}
				if err := ep0.PostSend(&send); err != nil {
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
