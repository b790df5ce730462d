// Package ibv is a software InfiniBand Verbs device: the API surface an MPI
// implementer programs against (protection domains, memory regions, queue
// pairs, completion queues, work requests), backed by the simulated fabric
// instead of silicon.
//
// The package mirrors the subset of libibverbs the paper's design uses
// (Section IV-A): reliable-connection QPs with the
// RESET→INIT→RTR→RTS state machine, RDMA WRITE / RDMA WRITE WITH IMMEDIATE /
// SEND opcodes, scatter-gather lists, signaled completions, and the
// ConnectX-5 behaviour the paper calls out — a per-QP limit on concurrently
// outstanding RDMA work requests (16), which is why the design spreads
// transport partitions across multiple QPs rather than throttling.
//
// The data path is zero-copy like the hardware's: the payload moves once,
// from the requester's memory into the responder's, when its last byte
// arrives (SendWR states who owns which buffer when).
//
// Faithful failure modes are part of the surface: posting to a QP in the
// wrong state, overflowing the send queue, RDMA-writing to an unregistered
// or out-of-bounds remote range, and arrivals with an empty receive queue
// (receiver-not-ready) all fail the way hardware does, transitioning the
// QP to the error state and flushing outstanding work requests.
package ibv

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Errors returned by verbs operations.
var (
	// ErrBadState is returned for an operation invalid in the QP's state.
	ErrBadState = errors.New("ibv: queue pair in wrong state")
	// ErrSQFull is returned when the send queue is at capacity.
	ErrSQFull = errors.New("ibv: send queue full")
	// ErrRQFull is returned when the receive queue is at capacity.
	ErrRQFull = errors.New("ibv: receive queue full")
	// ErrBadLKey is returned when an SGE's lkey matches no MR in the PD.
	ErrBadLKey = errors.New("ibv: invalid local key")
	// ErrMRBounds is returned when an SGE or remote range escapes its MR.
	ErrMRBounds = errors.New("ibv: address range outside memory region")
	// ErrNoRemote is returned for RDMA opcodes without a remote address.
	ErrNoRemote = errors.New("ibv: RDMA work request missing remote address")
	// ErrEmptySGList is returned for a send WR with no gather elements.
	ErrEmptySGList = errors.New("ibv: empty scatter/gather list")
	// ErrDeregistered is returned when registering/deregistering fails.
	ErrDeregistered = errors.New("ibv: memory region already deregistered")
)

// mrBase is the first synthetic virtual address handed to registered
// memory; spacing keeps distinct MRs far apart so bounds bugs are loud.
const mrBase = 0x1000_0000_0000

// HCA is one host channel adapter (NIC) attached to the fabric.
type HCA struct {
	eng  *sim.Engine
	port *fabric.Port
	name string

	nextAddr uint64
	nextKey  uint32
	nextQPN  uint32
	// mrs is the adapter's memory-key table, shared by every PD on it.
	// Keys come in pairs from nextKey (odd lkey, rkey = lkey + 1), so the
	// MR holding key k sits at index (k-1)/2 and a deregistered MR leaves
	// a nil slot. Lookups check the exact key (see PD.resolveSGE and
	// lookupMR).
	mrs []*MR
	// lastRKey/lastMR cache the most recent successful rkey lookup: a
	// flow's transport partitions all target one remote MR, so rkeys
	// repeat back-to-back and the table probe is skipped on the RDMA hot
	// path.
	lastRKey uint32
	lastMR   *MR
}

// NewHCA creates an adapter with its own fabric port.
func NewHCA(e *sim.Engine, f *fabric.Fabric, name string) *HCA {
	return &HCA{
		eng:      e,
		port:     f.NewPortOn(e, name),
		name:     name,
		nextAddr: mrBase,
		nextKey:  1,
		nextQPN:  1,
	}
}

// Name returns the adapter name.
func (h *HCA) Name() string { return h.name }

// Port returns the adapter's fabric port (for control-plane messaging).
func (h *HCA) Port() *fabric.Port { return h.port }

// Open creates a user-space device context, as ibv_open_device would.
func (h *HCA) Open() *Context { return &Context{hca: h} }

// Context is a user-space device context.
type Context struct {
	hca *HCA
}

// HCA returns the underlying adapter.
func (c *Context) HCA() *HCA { return c.hca }

// AllocPD allocates a protection domain scoping MRs and QPs.
func (c *Context) AllocPD() *PD {
	return &PD{ctx: c}
}

// CreateCQ creates a completion queue with the given depth.
func (c *Context) CreateCQ(depth int) *CQ {
	if depth < 1 {
		panic("ibv: CQ depth must be at least 1")
	}
	return &CQ{eng: c.hca.eng, depth: depth}
}

// mrAt returns the registered MR whose key pair includes key, or nil.
// Key 0 wraps to an index past any table.
func (h *HCA) mrAt(key uint32) *MR {
	if i := (key - 1) / 2; i < uint32(len(h.mrs)) {
		return h.mrs[i]
	}
	return nil
}

// lookupMR resolves a remote key on this adapter (the NIC-side RDMA path).
// A one-entry last-hit cache fronts the table; deregistration invalidates
// it (see MR.Dereg).
func (h *HCA) lookupMR(rkey uint32) (*MR, bool) {
	if h.lastMR != nil && h.lastRKey == rkey {
		return h.lastMR, true
	}
	mr := h.mrAt(rkey)
	if mr == nil || mr.rkey != rkey {
		return nil, false
	}
	h.lastRKey, h.lastMR = rkey, mr
	return mr, true
}

func (h *HCA) String() string { return fmt.Sprintf("hca(%s)", h.name) }
