// Package mpipcl is a portable, layered implementation of MPI Partitioned
// communication built purely on point-to-point messages — the approach of
// Bangalore et al. (EuroMPI'20) and Worley et al. (ICPP Workshops'21),
// released as the MPIPCL library that the paper's benchmark suite was
// originally written against (Section V-A: "We modified the public
// benchmarks listed in [14], to use Open MPI rather than the MPIPCL").
//
// Where the native module (internal/core) maps partitions onto verbs work
// requests directly, this layer sends each user partition as an ordinary
// tagged message. It exists for the comparison the paper's related work
// discusses: Worley et al. found "minimal difference between the layered
// library approach and the Open MPI persistent MCA module", a claim the
// ablation-layered experiment checks against this codebase's baseline.
//
// Request setup is exchanged with a handshake message; each partition of
// round r travels with tag base + (r mod RoundRing)*parts + i, a tag-ring
// that keeps consecutive rounds' messages apart (MPIPCL relies on MPI
// ordering the same way). At most RoundRing-1 rounds may be in flight.
package mpipcl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/pt2pt"
	"repro/internal/sim"
)

// Typed errors returned by the layered library. Mirroring internal/core's
// taxonomy, every failure surfaces as one of these (partlint's nopanic
// analyzer forbids panicking here).
var (
	// ErrPartitionRange reports a partition index outside [0, partitions).
	ErrPartitionRange = errors.New("mpipcl: partition index out of range")
	// ErrPartitionState reports a lifecycle violation, such as Pready
	// called twice for one partition in a round.
	ErrPartitionState = errors.New("mpipcl: partition in wrong state")
	// ErrSetupMismatch reports a sender/receiver disagreement on request
	// shape discovered in the setup handshake.
	ErrSetupMismatch = errors.New("mpipcl: sender/receiver setup mismatch")
	// ErrTooManyRequests reports exhaustion of the per-rank tag region.
	ErrTooManyRequests = errors.New("mpipcl: too many layered requests on one rank")
)

// Tag-space layout: the layered protocol lives far above application
// tags.
const (
	tagSetupBase = 1 << 22
	tagDataBase  = 1 << 23
	// RoundRing is how many consecutive rounds get distinct tag sets; the
	// application must not run more than RoundRing-1 rounds ahead of the
	// receiver.
	RoundRing = 8
	// maxRequests bounds concurrent layered requests per rank pair.
	maxRequests = 1 << 10
)

// Psend is a layered persistent partitioned send request.
type Psend struct {
	c         *pt2pt.Comm
	buf       []byte
	userParts int
	partBytes int
	dest      int
	tag       int

	baseTag int
	acked   bool
	ackReq  *pt2pt.RecvReq

	round int
	sent  []bool
	nSent int
}

// Precv is a layered persistent partitioned receive request.
type Precv struct {
	c         *pt2pt.Comm
	buf       []byte
	userParts int
	partBytes int
	source    int
	tag       int

	baseTag   int
	setup     *pt2pt.RecvReq
	setupData []byte

	round int
	reqs  []*pt2pt.RecvReq
}

// setupPayload carries the sender's data-tag base and shape.
func setupPayload(baseTag, parts, bytes int) []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out[0:], uint64(baseTag))
	binary.LittleEndian.PutUint64(out[8:], uint64(parts))
	binary.LittleEndian.PutUint64(out[16:], uint64(bytes))
	return out
}

func parseSetup(b []byte) (baseTag, parts, bytes int) {
	return int(binary.LittleEndian.Uint64(b[0:])),
		int(binary.LittleEndian.Uint64(b[8:])),
		int(binary.LittleEndian.Uint64(b[16:]))
}

// allocBase hands out the per-Comm data-tag region. The registry is
// package-level (the layered library keeps no per-rank runtime object);
// the mutex covers use from multiple simulations in one process.
var (
	baseAllocMu sync.Mutex
	baseAlloc   = map[*pt2pt.Comm]int{}
)

func allocBase(c *pt2pt.Comm, parts int) (int, error) {
	baseAllocMu.Lock()
	defer baseAllocMu.Unlock()
	idx := baseAlloc[c]
	if idx >= maxRequests {
		return 0, fmt.Errorf("%w: %d already allocated", ErrTooManyRequests, idx)
	}
	baseAlloc[c]++
	// Each request reserves RoundRing*parts tags.
	return tagDataBase + idx*(RoundRing*parts), nil
}

// PsendInit initializes a layered partitioned send. The handshake (setup
// message out, ack back) is posted immediately and completes
// asynchronously; the first Start waits for the ack, mirroring the
// helper-thread design of the portable library.
func PsendInit(p *sim.Proc, c *pt2pt.Comm, buf []byte, partitions, dest, tag int) (*Psend, error) {
	if len(buf) == 0 || partitions < 1 || len(buf)%partitions != 0 {
		return nil, fmt.Errorf("mpipcl: buffer of %d bytes not divisible into %d partitions", len(buf), partitions)
	}
	baseTag, err := allocBase(c, partitions)
	if err != nil {
		return nil, err
	}
	ps := &Psend{
		c:         c,
		buf:       buf,
		userParts: partitions,
		partBytes: len(buf) / partitions,
		dest:      dest,
		tag:       tag,
		baseTag:   baseTag,
		sent:      make([]bool, partitions),
	}
	if _, err := c.Isend(p, setupPayload(ps.baseTag, partitions, len(buf)), dest, tagSetupBase+tag); err != nil {
		return nil, err
	}
	ack, err := c.Irecv(p, make([]byte, 1), dest, tagSetupBase+tag)
	if err != nil {
		return nil, err
	}
	ps.ackReq = ack
	return ps, nil
}

// PrecvInit initializes a layered partitioned receive; the setup message
// is matched asynchronously.
func PrecvInit(p *sim.Proc, c *pt2pt.Comm, buf []byte, partitions, source, tag int) (*Precv, error) {
	if len(buf) == 0 || partitions < 1 || len(buf)%partitions != 0 {
		return nil, fmt.Errorf("mpipcl: buffer of %d bytes not divisible into %d partitions", len(buf), partitions)
	}
	pr := &Precv{
		c:         c,
		buf:       buf,
		userParts: partitions,
		partBytes: len(buf) / partitions,
		source:    source,
		tag:       tag,
	}
	pr.setupData = make([]byte, 24)
	setup, err := c.Irecv(p, pr.setupData, source, tagSetupBase+tag)
	if err != nil {
		return nil, err
	}
	pr.setup = setup
	return pr, nil
}

// roundTag returns the wire tag of partition i in the request's round.
func roundTag(base, round, parts, i int) int {
	return base + (round%RoundRing)*parts + i
}

// Start arms the sender's next round (first call completes the handshake).
func (ps *Psend) Start(p *sim.Proc) error {
	if !ps.acked {
		if err := ps.ackReq.Wait(p); err != nil {
			return fmt.Errorf("mpipcl: setup ack: %w", err)
		}
		ps.acked = true
	}
	ps.round++
	for i := range ps.sent {
		ps.sent[i] = false
	}
	ps.nSent = 0
	return nil
}

// Pready sends user partition i as one tagged message. It returns
// ErrPartitionRange when i is outside [0, partitions) and
// ErrPartitionState when i was already marked ready this round.
func (ps *Psend) Pready(p *sim.Proc, i int) error {
	if i < 0 || i >= ps.userParts {
		return fmt.Errorf("%w: Pready partition %d outside [0,%d)", ErrPartitionRange, i, ps.userParts)
	}
	if ps.sent[i] {
		return fmt.Errorf("%w: Pready called twice for partition %d in round %d", ErrPartitionState, i, ps.round)
	}
	ps.sent[i] = true
	tag := roundTag(ps.baseTag, ps.round, ps.userParts, i)
	if _, err := ps.c.Isend(p, ps.buf[i*ps.partBytes:(i+1)*ps.partBytes], ps.dest, tag); err != nil {
		return fmt.Errorf("mpipcl: Pready send: %w", err)
	}
	ps.nSent++
	return nil
}

// done reports sender-side round completion.
func (ps *Psend) done() bool {
	return ps.nSent == ps.userParts && ps.c.Quiescent()
}

// Wait blocks until every partition of the round has been sent and
// flushed, surfacing any protocol error recorded on the engine.
func (ps *Psend) Wait(p *sim.Proc) error {
	ps.c.Rank().WaitOn(p, func() bool { return ps.done() || ps.c.Err() != nil })
	if !ps.done() {
		return ps.c.Err()
	}
	return nil
}

// Test progresses once and reports completion. A recorded protocol error
// surfaces as (false, err).
func (ps *Psend) Test(p *sim.Proc) (bool, error) {
	if ps.done() {
		return true, nil
	}
	if err := ps.c.Err(); err != nil {
		return false, err
	}
	ps.c.Rank().Progress(p)
	return ps.done(), ps.c.Err()
}

// Start arms the receiver's next round: one posted receive per partition
// (first call completes the handshake and acks the sender). A sender whose
// shape disagrees with the receiver's surfaces as ErrSetupMismatch.
func (pr *Precv) Start(p *sim.Proc) error {
	if pr.setup != nil {
		if err := pr.setup.Wait(p); err != nil {
			return fmt.Errorf("mpipcl: setup: %w", err)
		}
		baseTag, parts, bytes := parseSetup(pr.setupData)
		if parts != pr.userParts || bytes != len(pr.buf) {
			return fmt.Errorf("%w: sender %d/%d, receiver %d/%d",
				ErrSetupMismatch, parts, bytes, pr.userParts, len(pr.buf))
		}
		pr.baseTag = baseTag
		if _, err := pr.c.Isend(p, []byte{1}, pr.source, tagSetupBase+pr.tag); err != nil {
			return fmt.Errorf("mpipcl: setup ack: %w", err)
		}
		pr.setup = nil
	}
	pr.round++
	pr.reqs = pr.reqs[:0]
	for i := 0; i < pr.userParts; i++ {
		tag := roundTag(pr.baseTag, pr.round, pr.userParts, i)
		req, err := pr.c.Irecv(p, pr.buf[i*pr.partBytes:(i+1)*pr.partBytes], pr.source, tag)
		if err != nil {
			return fmt.Errorf("mpipcl: Start Irecv: %w", err)
		}
		pr.reqs = append(pr.reqs, req)
	}
	return nil
}

// Parrived reports whether partition i has arrived, progressing once. It
// returns ErrPartitionRange when i is outside the posted round.
func (pr *Precv) Parrived(p *sim.Proc, i int) (bool, error) {
	if i < 0 || i >= len(pr.reqs) {
		return false, fmt.Errorf("%w: Parrived partition %d outside [0,%d)", ErrPartitionRange, i, len(pr.reqs))
	}
	return pr.reqs[i].Test(p), nil
}

// done reports receiver-side round completion.
func (pr *Precv) done() bool {
	for _, r := range pr.reqs {
		if !r.Done() {
			return false
		}
	}
	return true
}

// Wait blocks until every partition of the round has arrived, surfacing
// any protocol error recorded on the engine.
func (pr *Precv) Wait(p *sim.Proc) error {
	pr.c.Rank().WaitOn(p, func() bool { return pr.done() || pr.c.Err() != nil })
	if !pr.done() {
		return pr.c.Err()
	}
	return nil
}

// Test progresses once and reports completion. A recorded protocol error
// surfaces as (false, err).
func (pr *Precv) Test(p *sim.Proc) (bool, error) {
	if pr.done() {
		return true, nil
	}
	if err := pr.c.Err(); err != nil {
		return false, err
	}
	pr.c.Rank().Progress(p)
	return pr.done(), pr.c.Err()
}
