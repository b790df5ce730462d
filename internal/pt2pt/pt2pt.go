// Package pt2pt provides nonblocking MPI point-to-point messages
// (Isend/Irecv with tag matching) over the UCX-like active-message
// layer (internal/ucx), registering its staging and landing buffers in
// the rank's protection domain (mpi.Rank.PD). It is the substrate of the
// layered partitioned library (internal/mpipcl), which sends every user
// partition as one ordinary tagged message.
//
// Matching follows MPI semantics: posted receives match arriving messages
// by (source, tag) in posted order, and arrivals no receive matches wait
// in an unexpected queue in arrival order — the matching-queue machinery
// whose multi-threaded cost is one of the paper's motivations for
// partitioned communication in the first place.
package pt2pt

import (
	"errors"
	"fmt"

	"repro/internal/ibv"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// Typed errors returned by the engine. Like internal/core, the package
// reports every failure through these instead of panicking (enforced by
// partlint's nopanic analyzer).
var (
	// ErrTruncated reports a message longer than the posted receive buffer
	// (the MPI_ERR_TRUNCATE class).
	ErrTruncated = errors.New("pt2pt: message truncated")
	// ErrRndvProtocol reports a rendezvous protocol violation, such as a
	// FIN with no matching landing zone.
	ErrRndvProtocol = errors.New("pt2pt: rendezvous protocol violation")
)

// maxTag bounds tags so they pack into the active-message header.
const maxTag = 1 << 30

// Comm is one rank's point-to-point engine. Create exactly one per rank
// (it owns the rank's "pt2pt" transport channel).
type Comm struct {
	r  *mpi.Rank
	tr *ucx.Transport

	// posted holds unmatched receive requests in post order.
	posted []*RecvReq
	// unexpected holds arrived-but-unmatched messages in arrival order.
	unexpected []*envelope

	// sendMR is a registered staging region for Isend payloads. Zero-copy
	// and rendezvous sends read it when their data lands, after Isend has
	// returned, so it stays busy until the transport has flushed.
	sendMR   *ibv.MR
	sendBusy bool

	// scratch tracks unexpected rendezvous arrivals between CTS and FIN.
	scratch []scratchLanding

	// err records the first asynchronous protocol error; handlers run at
	// event context with no caller to return to, so they record here and
	// Wait surfaces it.
	err error
}

// fail records the first asynchronous protocol error and wakes waiters.
func (c *Comm) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.r.Wake()
}

// Err returns the first asynchronous protocol error recorded on the
// engine, or nil. Once set it is sticky.
func (c *Comm) Err() error { return c.err }

// envelope is an arrived, unmatched message held in the unexpected queue.
type envelope struct {
	source int
	tag    int
	data   []byte
}

// SendReq tracks a nonblocking send.
type SendReq struct {
	c    *Comm
	done bool
}

// RecvReq tracks a nonblocking receive.
type RecvReq struct {
	c       *Comm
	buf     []byte
	source  int
	tag     int
	done    bool
	overrun bool
	// landing is the direct rendezvous registration over buf, when the
	// receive was posted before the sender's RTS arrived.
	landing *ibv.MR
}

// New creates the point-to-point engine for a rank. The engine's
// active-message transport lives on the "pt2pt" control channel, so it
// coexists with the partitioned module's on the same rank (two workers).
func New(r *mpi.Rank) (*Comm, error) {
	tr := ucx.New(r, "pt2pt")
	c := &Comm{r: r, tr: tr}
	mr, err := r.PD().RegMR(make([]byte, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("pt2pt: staging registration: %w", err)
	}
	c.sendMR = mr
	tr.SetEagerHandler(c.onEager)
	tr.SetRndv(c.rndvTarget, c.onRndvDone)
	return c, nil
}

// Rank returns the owning rank.
func (c *Comm) Rank() *mpi.Rank { return c.r }

// header packs (tag) into the active-message header; the transport
// supplies the source rank on delivery.
func header(tag int) uint64 { return uint64(uint32(tag)) }

func tagOf(h uint64) int { return int(uint32(h)) }

// Isend starts a nonblocking standard send of buf to (dest, tag).
// The payload is captured before return (bcopy) or pinned (zcopy/rndv),
// so the buffer may be reused once the request completes.
func (c *Comm) Isend(p *sim.Proc, buf []byte, dest, tag int) (*SendReq, error) {
	if tag < 0 || tag >= maxTag {
		return nil, fmt.Errorf("pt2pt: tag %d out of range", tag)
	}
	if dest < 0 || dest >= c.r.World().Size() {
		return nil, fmt.Errorf("pt2pt: destination %d out of range", dest)
	}
	// Stage through the registered region so zcopy/rendezvous can run.
	// Large payloads register on the fly like a registration cache miss.
	req := &SendReq{c: c}
	if c.sendBusy && c.tr.Quiescent() {
		c.sendBusy = false
	}
	if len(buf) <= c.sendMR.Len() && !c.sendBusy {
		c.sendBusy = true
		copy(c.sendMR.Bytes()[:len(buf)], buf)
		if err := c.tr.SendMR(p, dest, header(tag), c.sendMR, 0, len(buf)); err != nil {
			return nil, err
		}
	} else {
		mr, err := c.r.PD().RegMR(append([]byte(nil), buf...))
		if err != nil {
			return nil, err
		}
		if err := c.tr.SendMR(p, dest, header(tag), mr, 0, len(buf)); err != nil {
			return nil, err
		}
	}
	req.done = true // injected; completion semantics of a buffered send
	return req, nil
}

// Wait blocks until the send completes.
func (s *SendReq) Wait(p *sim.Proc) {
	s.c.r.WaitOn(p, func() bool { return s.done })
}

// Irecv posts a nonblocking receive into buf from (source, tag). Matching
// is in posted order against arrival order.
func (c *Comm) Irecv(p *sim.Proc, buf []byte, source, tag int) (*RecvReq, error) {
	if tag < 0 || tag >= maxTag {
		return nil, fmt.Errorf("pt2pt: tag %d out of range", tag)
	}
	if source < 0 || source >= c.r.World().Size() {
		return nil, fmt.Errorf("pt2pt: source %d out of range", source)
	}
	req := &RecvReq{c: c, buf: buf, source: source, tag: tag}
	// First try the unexpected queue in arrival order.
	for i, env := range c.unexpected {
		if req.matches(env.source, env.tag) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			req.complete(env.data)
			return req, nil
		}
	}
	c.posted = append(c.posted, req)
	return req, nil
}

// matches reports whether the request accepts a (source, tag) pair.
func (r *RecvReq) matches(source, tag int) bool {
	return r.source == source && r.tag == tag
}

// complete fills the request from a matched payload.
func (r *RecvReq) complete(data []byte) {
	n := copy(r.buf, data)
	if n < len(data) {
		r.overrun = true
	}
	r.done = true
	r.c.r.Wake()
}

// Wait blocks until the receive completes. Receiving a message longer
// than the posted buffer returns ErrTruncated (the MPI truncation error);
// an asynchronous protocol error recorded on the engine is also surfaced.
func (r *RecvReq) Wait(p *sim.Proc) error {
	r.c.r.WaitOn(p, func() bool { return r.done || r.c.err != nil })
	if !r.done {
		return r.c.err
	}
	if r.overrun {
		return fmt.Errorf("%w: %d-byte buffer", ErrTruncated, len(r.buf))
	}
	return nil
}

// Test reports completion without blocking.
func (r *RecvReq) Test(p *sim.Proc) bool {
	if !r.done {
		r.c.r.Progress(p)
	}
	return r.done
}

// Done reports completion without progressing (for use inside WaitOn
// predicates, which progress themselves).
func (r *RecvReq) Done() bool { return r.done }

// onEager matches an eager arrival against posted receives in order.
func (c *Comm) onEager(p *sim.Proc, from int, h uint64, data []byte) {
	tag := tagOf(h)
	for i, req := range c.posted {
		if req.matches(from, tag) {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			req.complete(data)
			return
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.unexpected = append(c.unexpected, &envelope{source: from, tag: tag, data: cp})
}

// rndvTarget places a rendezvous payload. A matched posted receive lands
// directly in the user buffer (true zero-copy rendezvous); an unexpected
// rendezvous lands in a scratch registration and is copied at match time.
func (c *Comm) rndvTarget(from int, h uint64, size int) (*ibv.MR, int, bool) {
	tag := tagOf(h)
	for _, req := range c.posted {
		if req.matches(from, tag) && req.landing == nil {
			if size > len(req.buf) {
				break // truncation: land in scratch, fail at Wait
			}
			mr, err := c.r.PD().RegMR(req.buf)
			if err != nil {
				break
			}
			req.landing = mr
			return mr, 0, true
		}
	}
	scratch, err := c.r.PD().RegMR(make([]byte, size))
	if err != nil {
		return nil, 0, false
	}
	c.scratch = append(c.scratch, scratchLanding{from: from, tag: tag, mr: scratch})
	return scratch, 0, true
}

// onRndvDone completes a rendezvous arrival.
func (c *Comm) onRndvDone(from int, h uint64, size int) {
	tag := tagOf(h)
	// Direct landing into a posted receive?
	for i, req := range c.posted {
		if req.matches(from, tag) && req.landing != nil {
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			req.done = true
			c.r.Wake()
			return
		}
	}
	// Scratch landing: move to the unexpected queue.
	for i, sl := range c.scratch {
		if sl.from == from && sl.tag == tag && sl.mr.Len() == size {
			c.scratch = append(c.scratch[:i], c.scratch[i+1:]...)
			c.unexpected = append(c.unexpected, &envelope{source: from, tag: tag, data: sl.mr.Bytes()})
			// A receive posted between RTS and FIN may already match.
			c.rematch()
			return
		}
	}
	c.fail(fmt.Errorf("%w: rendezvous FIN with no landing (from %d tag %d)", ErrRndvProtocol, from, tag))
}

// rematch retries the unexpected queue against posted receives (used after
// deferred rendezvous completions).
func (c *Comm) rematch() {
	for i := 0; i < len(c.unexpected); i++ {
		env := c.unexpected[i]
		for j, req := range c.posted {
			if req.matches(env.source, env.tag) {
				c.posted = append(c.posted[:j], c.posted[j+1:]...)
				c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
				req.complete(env.data)
				i--
				break
			}
		}
	}
}

// scratchLanding tracks an unexpected rendezvous in flight.
type scratchLanding struct {
	from int
	tag  int
	mr   *ibv.MR
}

// Quiescent reports whether the underlying transport has flushed all
// outstanding work (UCX flush semantics); senders can progress on it
// before reusing buffers.
func (c *Comm) Quiescent() bool { return c.tr.Quiescent() }
