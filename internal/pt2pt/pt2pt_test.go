package pt2pt

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// env builds a world with one Comm per rank.
type env struct {
	w  *mpi.World
	cs []*Comm
}

func newEnv(nodes int) *env {
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(nodes)})
	e := &env{w: w}
	for i := 0; i < nodes; i++ {
		c, err := New(w.Rank(i))
		if err != nil {
			panic(err)
		}
		e.cs = append(e.cs, c)
	}
	return e
}

// send is Isend followed by a wait for the transport to flush, so the
// staging region is free for the next send.
func send(p *sim.Proc, c *Comm, buf []byte, dest, tag int) error {
	if _, err := c.Isend(p, buf, dest, tag); err != nil {
		return err
	}
	c.Rank().WaitOn(p, c.Quiescent)
	return nil
}

// recv is Irecv followed by Wait.
func recv(p *sim.Proc, c *Comm, buf []byte, source, tag int) error {
	req, err := c.Irecv(p, buf, source, tag)
	if err != nil {
		return err
	}
	return req.Wait(p)
}

func TestRendezvousSizedSendRecv(t *testing.T) {
	e := newEnv(2)
	msg := make([]byte, 256<<10) // above the rendezvous threshold
	for i := range msg {
		msg[i] = byte(i * 17)
	}
	got := make([]byte, len(msg))
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := send(p, e.cs[0], msg, 1, 1); err != nil {
				t.Error(err)
			}
		case 1:
			if err := recv(p, e.cs[1], got, 0, 1); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("rendezvous payload mismatch")
	}
}

func TestUnexpectedMessageQueued(t *testing.T) {
	// Send arrives before the receive is posted.
	e := newEnv(2)
	got := make([]byte, 16)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := send(p, e.cs[0], []byte{42}, 1, 5); err != nil {
				t.Error(err)
			}
		case 1:
			p.Sleep(time.Millisecond) // let the message land unexpected
			if err := recv(p, e.cs[1], got, 0, 5); err != nil {
				t.Error(err)
			}
			if got[0] != 42 {
				t.Errorf("got %v, want 42", got[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatchingOrderFIFO(t *testing.T) {
	// Two same-tag messages match two posted receives in order.
	e := newEnv(2)
	a := make([]byte, 4)
	b := make([]byte, 4)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := send(p, e.cs[0], []byte{1}, 1, 3); err != nil {
				t.Error(err)
			}
			if err := send(p, e.cs[0], []byte{2}, 1, 3); err != nil {
				t.Error(err)
			}
		case 1:
			r1, err := e.cs[1].Irecv(p, a, 0, 3)
			if err != nil {
				t.Error(err)
			}
			r2, err := e.cs[1].Irecv(p, b, 0, 3)
			if err != nil {
				t.Error(err)
			}
			r1.Wait(p)
			r2.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 1 || b[0] != 2 {
		t.Fatalf("matching order violated: a=%d b=%d", a[0], b[0])
	}
}

func TestIsendTestIrecvTest(t *testing.T) {
	e := newEnv(2)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			req, err := e.cs[0].Isend(p, []byte{9}, 1, 2)
			if err != nil {
				t.Error(err)
			}
			req.Wait(p)
		case 1:
			buf := make([]byte, 4)
			req, err := e.cs[1].Irecv(p, buf, 0, 2)
			if err != nil {
				t.Error(err)
			}
			for !req.Test(p) {
				p.Sleep(10 * time.Microsecond)
			}
			if buf[0] != 9 {
				t.Errorf("payload %d, want 9", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	e := newEnv(2)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		c := e.cs[0]
		if _, err := c.Isend(p, []byte{1}, 99, 0); err == nil {
			t.Error("bad destination accepted")
		}
		if _, err := c.Isend(p, []byte{1}, 1, -2); err == nil {
			t.Error("negative tag accepted")
		}
		if _, err := c.Irecv(p, make([]byte, 4), 99, 0); err == nil {
			t.Error("bad source accepted")
		}
		if _, err := c.Irecv(p, make([]byte, 4), 1, maxTag); err == nil {
			t.Error("oversized tag accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationFails(t *testing.T) {
	e := newEnv(2)
	var recvErr error
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := send(p, e.cs[0], make([]byte, 100), 1, 1); err != nil {
				t.Error(err)
			}
		case 1:
			recvErr = recv(p, e.cs[1], make([]byte, 10), 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(recvErr, ErrTruncated) {
		t.Fatalf("truncated receive returned %v; want ErrTruncated", recvErr)
	}
}

func TestManyMessagesManyPeers(t *testing.T) {
	const nodes = 4
	e := newEnv(nodes)
	received := make([]int, nodes)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		me := r.ID()
		// Everyone sends one message to everyone else, then receives one
		// from each peer in rank order.
		for dst := 0; dst < nodes; dst++ {
			if dst == me {
				continue
			}
			if err := send(p, e.cs[me], []byte{byte(me)}, dst, 1); err != nil {
				t.Error(err)
			}
		}
		buf := make([]byte, 4)
		for src := 0; src < nodes; src++ {
			if src == me {
				continue
			}
			if err := recv(p, e.cs[me], buf, src, 1); err != nil {
				t.Error(err)
			}
			if int(buf[0]) != src {
				t.Errorf("payload %d from source %d", buf[0], src)
			}
			received[me]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range received {
		if n != nodes-1 {
			t.Errorf("rank %d received %d messages", i, n)
		}
	}
}

func TestOversizedIsendRegistersOnTheFly(t *testing.T) {
	// Payload above the 1 MiB staging region takes the
	// register-a-private-MR path.
	e := newEnv(2)
	msg := make([]byte, 2<<20)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	got := make([]byte, len(msg))
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := send(p, e.cs[0], msg, 1, 4); err != nil {
				t.Error(err)
			}
		case 1:
			if err := recv(p, e.cs[1], got, 0, 4); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("oversized payload mismatch")
	}
}

func TestBackToBackIsendsWithoutWait(t *testing.T) {
	// The second Isend finds the staging region busy and must capture a
	// private copy; both payloads arrive intact.
	e := newEnv(2)
	a := make([]byte, 4)
	b := make([]byte, 4)
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			r1, err := e.cs[0].Isend(p, []byte{1, 1}, 1, 1)
			if err != nil {
				t.Error(err)
			}
			r2, err := e.cs[0].Isend(p, []byte{2, 2}, 1, 1)
			if err != nil {
				t.Error(err)
			}
			r1.Wait(p)
			r2.Wait(p)
			r.WaitOn(p, e.cs[0].Quiescent)
		case 1:
			if err := recv(p, e.cs[1], a, 0, 1); err != nil {
				t.Error(err)
			}
			if err := recv(p, e.cs[1], b, 0, 1); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 1 || b[0] != 2 {
		t.Fatalf("a=%v b=%v", a[0], b[0])
	}
}

func TestIsendWaitIsendKeepsInFlightPayload(t *testing.T) {
	// Wait returns as soon as a send is injected, but a zero-copy or
	// rendezvous send still reads the staging region when its data lands.
	// The next Isend must not overwrite the staging region until then.
	for _, size := range []int{4 << 10, 64 << 10} { // zcopy, rendezvous
		e := newEnv(2)
		a, b := make([]byte, size), make([]byte, size)
		err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
			switch r.ID() {
			case 0:
				for _, v := range []byte{1, 2} {
					req, err := e.cs[0].Isend(p, bytes.Repeat([]byte{v}, size), 1, 1)
					if err != nil {
						t.Error(err)
					}
					req.Wait(p)
				}
				r.WaitOn(p, e.cs[0].Quiescent)
			case 1:
				if err := recv(p, e.cs[1], a, 0, 1); err != nil {
					t.Error(err)
				}
				if err := recv(p, e.cs[1], b, 0, 1); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, bytes.Repeat([]byte{1}, size)) || !bytes.Equal(b, bytes.Repeat([]byte{2}, size)) {
			t.Fatalf("%d B: first message starts %v, second %v; want all 1s then all 2s", size, a[:4], b[:4])
		}
	}
}

func TestUnexpectedRendezvousLandsInScratch(t *testing.T) {
	// A rendezvous-sized message arriving before the receive is posted
	// lands in a scratch registration and is copied at match time.
	e := newEnv(2)
	msg := make([]byte, 128<<10)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	got := make([]byte, len(msg))
	err := e.w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			if err := send(p, e.cs[0], msg, 1, 6); err != nil {
				t.Error(err)
			}
		case 1:
			p.Sleep(2 * time.Millisecond) // arrive unexpected
			if err := recv(p, e.cs[1], got, 0, 6); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("unexpected rendezvous payload mismatch")
	}
}
