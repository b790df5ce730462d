package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestMatchFIFOBothArrivalOrders posts three requests on (0, tag 5) and
// one on (0, tag 9), the tag-9 pair out of step on the two sides, and
// checks every buffer lands in posted order when the receives are posted
// before the send-inits arrive, after, and half and half.
func TestMatchFIFOBothArrivalOrders(t *testing.T) {
	const (
		total = 4 << 10
		late  = time.Millisecond // well past a control message's flight
	)
	cases := []struct {
		name string
		// sendDelay holds the sender back before its inits; recvDelay
		// holds the receiver back before the inits listed in lateRecvs.
		sendDelay, recvDelay time.Duration
		lateRecvs            int
	}{
		{"receives first", late, 0, 0},
		{"sinits first", 0, late, 4},
		{"mixed", 0, late, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv()
			opts := Options{Strategy: StrategyPLogGP}
			// Sender posts A(5), X(9), B(5), C(5); the receiver posts
			// R9 first, then R1, R2, R3 on tag 5.
			sendTags := []int{5, 9, 5, 5}
			recvTags := []int{9, 5, 5, 5}
			srcs := make([][]byte, 4)
			dsts := make([][]byte, 4)
			for i := range srcs {
				srcs[i] = make([]byte, total)
				fillBuf(srcs[i], byte(0x10*(i+1)))
				dsts[i] = make([]byte, total)
			}
			e.runPair(t,
				func(p *sim.Proc, eng *Engine) {
					p.Sleep(c.sendDelay)
					var ps []*Psend
					for i, tag := range sendTags {
						s, err := eng.PsendInit(p, srcs[i], 4, 1, tag, opts)
						if err != nil {
							t.Error(err)
							return
						}
						ps = append(ps, s)
					}
					for _, s := range ps {
						s.Start(p)
						s.PreadyRange(p, 0, 4)
					}
					for _, s := range ps {
						s.Wait(p)
					}
				},
				func(p *sim.Proc, eng *Engine) {
					var pr []*Precv
					for i, tag := range recvTags {
						if i == len(recvTags)-c.lateRecvs {
							p.Sleep(c.recvDelay)
						}
						r, err := eng.PrecvInit(p, dsts[i], 4, 0, tag, opts)
						if err != nil {
							t.Error(err)
							return
						}
						pr = append(pr, r)
					}
					for _, r := range pr {
						r.Start(p)
					}
					for _, r := range pr {
						r.Wait(p)
					}
				},
			)
			// R9 ← X, then R1 ← A, R2 ← B, R3 ← C.
			for i, want := range [][]byte{srcs[1], srcs[0], srcs[2], srcs[3]} {
				if !bytes.Equal(dsts[i], want) {
					t.Errorf("receive %d (tag %d) got the wrong sender's buffer", i, recvTags[i])
				}
			}
			if n := len(e.eng[1].pendingRecvs) + len(e.eng[1].unexpected); n != 0 {
				t.Errorf("%d inits left unmatched", n)
			}
		})
	}
}

// TestMessengerOnlyForBaseline runs an aggregating pair (ranks 0 → 1)
// beside a baseline pair (ranks 2 → 3) in one world: only the baseline
// ranks build the active-message transport, and both pairs deliver.
func TestMessengerOnlyForBaseline(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(4)})
	engines := make([]*Engine, w.Size())
	for i := range engines {
		eng, err := NewEngine(w.Rank(i), "")
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	const parts, total = 8, 64 << 10
	srcs := [][]byte{make([]byte, total), make([]byte, total)}
	dsts := [][]byte{make([]byte, total), make([]byte, total)}
	fillBuf(srcs[0], 0x21)
	fillBuf(srcs[1], 0x43)
	strategies := []Strategy{StrategyTimerPLogGP, StrategyBaseline}
	err := w.Run(func(p *sim.Proc, r *mpi.Rank) {
		pair := r.ID() / 2
		opts := Options{Strategy: strategies[pair]}
		eng := engines[r.ID()]
		if r.ID()%2 == 0 {
			ps, err := eng.PsendInit(p, srcs[pair], parts, r.ID()+1, 1, opts)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 2; round++ {
				ps.Start(p)
				ps.PreadyRange(p, 0, parts)
				if err := ps.Wait(p); err != nil {
					t.Error(err)
				}
			}
			return
		}
		pr, err := eng.PrecvInit(p, dsts[pair], parts, r.ID()-1, 1, opts)
		if err != nil {
			t.Error(err)
			return
		}
		for round := 0; round < 2; round++ {
			pr.Start(p)
			if err := pr.Wait(p); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for pair, s := range strategies {
		if !bytes.Equal(dsts[pair], srcs[pair]) {
			t.Errorf("%v pair: receive buffer mismatch", s)
		}
	}
	for i, eng := range engines {
		if got, want := eng.msgr != nil, i >= 2; got != want {
			t.Errorf("rank %d (%v): messenger built = %v, want %v", i, strategies[i/2], got, want)
		}
	}
}
