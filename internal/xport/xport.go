// Package xport is the provider-neutral transport SPI every communication
// layer of the stack programs against. It exists so that the aggregation
// strategies (internal/core), the point-to-point layer (internal/pt2pt),
// and the benchmarks run unmodified over either interconnect backend —
// the simulated verbs device or an intra-node shared-memory loopback —
// the same seam pMR and libfabric carve between MPI-level logic and
// provider hardware. The UCX-like active-message engine (internal/ucx)
// rides on the same SPI.
//
// The SPI has four load-bearing contracts:
//
//   - Provider: a per-rank backend instance. It registers memory (Mem),
//     mints Endpoints, advertises the protocol thresholds of the
//     middleware above it (Caps), and drains its completions (Progress).
//   - Endpoint: one reliable connected queue pair. Endpoints exchange
//     opaque descriptors (Desc) through the host's control plane and are
//     connected with Connect; work is posted with PostSend/PostRecv. A
//     non-inline send's payload is read when it lands, not when it is
//     posted, so it stays the caller's to leave untouched until the WR
//     completes (see SendWR).
//   - Mem: a registered memory region addressable by (Addr, RKey) for
//     remote access and sliced locally into Segs.
//   - Completion delivery: providers never call application code directly.
//     Completions queue inside the provider and are drained by the host's
//     progress engine through Provider.Progress, preserving the paper's
//     single-threaded try-lock progress semantics (§IV-A): each drained
//     completion charges the host's completion cost to the progressing
//     proc and is dispatched to the owning endpoint's OnCompletion
//     callback.
//
// The host (internal/mpi) builds its providers by name; the set is closed.
package xport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Typed misuse errors returned by SPI entry points. Providers wrap these
// with context via fmt.Errorf("...: %w", Err...), so callers test with
// errors.Is.
var (
	// ErrUnknownProvider is returned when the host has no provider of the
	// requested name.
	ErrUnknownProvider = errors.New("xport: unknown provider")
	// ErrNotConnected is returned when work is posted on an endpoint that
	// has not completed Connect.
	ErrNotConnected = errors.New("xport: endpoint not connected")
	// ErrForeignMem is returned when a Seg references a Mem that was not
	// registered by the provider the operation runs on.
	ErrForeignMem = errors.New("xport: Mem from a different provider")
	// ErrBadDesc is returned by Connect when the remote descriptor is not
	// one minted by a compatible provider.
	ErrBadDesc = errors.New("xport: incompatible endpoint descriptor")
	// ErrCrossNode is returned by intra-node-only providers when asked to
	// connect to a peer on a different node.
	ErrCrossNode = errors.New("xport: provider is intra-node only")
	// ErrMemBounds is returned when a Seg's [Off, Off+Len) range escapes
	// its Mem.
	ErrMemBounds = errors.New("xport: segment outside registered region")
	// ErrTooLong is returned when a payload exceeds a protocol limit (for
	// example an inline send beyond MaxInline).
	ErrTooLong = errors.New("xport: payload exceeds protocol limit")
	// ErrQueueFull is returned when a work queue's depth is exhausted.
	ErrQueueFull = errors.New("xport: work queue full")
)

// Op is a send-side work-request opcode.
type Op int

// Work-request opcodes. They mirror the verbs set; every provider
// implements all four.
const (
	// OpSend is a two-sided send consuming a remote receive WR.
	OpSend Op = iota
	// OpWrite places data into remote memory without remote completion.
	OpWrite
	// OpWriteImm is an RDMA write that also consumes a remote receive WR
	// and delivers 32 bits of immediate data — the opcode the paper's
	// aggregation design is built on.
	OpWriteImm
	// OpRead fetches remote memory into the local gather list.
	OpRead
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_WITH_IMM"
	case OpRead:
		return "READ"
	default:
		return "unknown op"
	}
}

// Status is a work-completion status code, mirroring ibv_wc_status.
type Status int

// Work-completion statuses.
const (
	StatusSuccess Status = iota
	// StatusLocProtErr: a local buffer violated its memory region.
	StatusLocProtErr
	// StatusRemAccessErr: the remote range or rkey was invalid.
	StatusRemAccessErr
	// StatusRNR: the responder had no receive WR posted.
	StatusRNR
	// StatusLenErr: an inbound message overran the receive buffer.
	StatusLenErr
	// StatusFlushErr: the WR was flushed when the endpoint failed.
	StatusFlushErr
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusLocProtErr:
		return "local protection error"
	case StatusRemAccessErr:
		return "remote access error"
	case StatusRNR:
		return "RNR retry exceeded"
	case StatusLenErr:
		return "length error"
	case StatusFlushErr:
		return "WR flushed"
	default:
		return "unknown status"
	}
}

// CompOp identifies what kind of work a completion reports.
type CompOp int

// Completion opcodes.
const (
	CompSend CompOp = iota
	CompWrite
	CompRead
	CompRecv
	CompRecvImm
)

func (o CompOp) String() string {
	switch o {
	case CompSend:
		return "SEND"
	case CompWrite:
		return "WRITE"
	case CompRead:
		return "READ"
	case CompRecv:
		return "RECV"
	case CompRecvImm:
		return "RECV_WITH_IMM"
	default:
		return "unknown completion op"
	}
}

// Completion is one drained work completion, delivered to the owning
// endpoint's OnCompletion callback from the host's progress engine.
type Completion struct {
	WRID   uint64
	Status Status
	Op     CompOp
	Bytes  int
	// Imm carries the immediate data for *_WITH_IMM arrivals; HasImm
	// distinguishes a real zero immediate from absence.
	Imm    uint32
	HasImm bool
}

// OK reports whether the completion succeeded.
func (c Completion) OK() bool { return c.Status == StatusSuccess }

// Mem is a registered memory region: locally sliceable bytes addressable
// remotely by (Addr, RKey). Providers return their own implementation from
// RegMem; a Mem is only valid with the provider that registered it.
type Mem interface {
	// Bytes returns the registered memory itself (registration pins
	// application-owned memory; bounds discipline applies to remote use).
	Bytes() []byte
	// Len returns the registered length in bytes.
	Len() int
	// Addr returns the region's virtual base address for remote access.
	Addr() uint64
	// RKey returns the remote access key.
	RKey() uint32
	// Dereg deregisters the region; subsequent local or remote use fails.
	Dereg() error
}

// Seg is a scatter/gather element: the range mem.Bytes()[Off : Off+Len].
type Seg struct {
	Mem Mem
	Off int
	Len int
}

// SendWR is a send-side work request.
//
// Buffer ownership follows the verbs rule the paper's zero-copy design
// relies on. Providers read the WR itself, including the Segs slice, before
// PostSend returns, so both may be reused at once. The bytes the Segs name
// are different: a non-inline WR reads them when they land at the
// destination, and the caller must not modify them until the WR completes.
// An Inline WR copies its payload at post time, so its buffer is reusable
// as soon as PostSend returns. A read's Segs receive the fetched data when
// the WR completes.
type SendWR struct {
	WRID       uint64
	Op         Op
	Segs       []Seg
	RemoteAddr uint64
	RKey       uint32
	Imm        uint32
	// Signaled requests a completion on success. Failed WRs always
	// complete, signaled or not.
	Signaled bool
	// Inline requests that the payload travel with the doorbell write; the
	// total gather length must not exceed the endpoint's MaxInline.
	Inline bool
}

// RecvWR is a receive-side work request. For write-with-immediate arrivals
// Segs may be empty: only the immediate is delivered.
//
// Post RecvWRs by pointer: providers cache their converted representation
// in Prep, so reposting the same RecvWR is allocation-free.
type RecvWR struct {
	WRID uint64
	Segs []Seg
	// Prep is provider-private conversion state. Callers must treat it as
	// opaque and must not share one RecvWR between endpoints of different
	// providers.
	Prep any
}

// Desc is an opaque endpoint descriptor, exchanged between peers through
// the host's control plane (like a serialized QPN/LID pair). Only the
// provider that minted a Desc can interpret it.
type Desc = any

// EndpointConfig configures endpoint creation.
type EndpointConfig struct {
	// MaxSendWR is the send-queue depth. Zero selects the provider default.
	MaxSendWR int
	// MaxRecvWR is the receive-queue depth. Zero selects the provider
	// default.
	MaxRecvWR int
	// MaxOutstanding caps concurrently in-flight work requests (the
	// ConnectX-5 window of 16 the paper works around with multiple
	// endpoints). Zero selects the provider default.
	MaxOutstanding int
	// OnCompletion receives this endpoint's completions from the host's
	// progress engine. It must be non-nil.
	OnCompletion func(p *sim.Proc, c Completion)
}

// Endpoint is one reliable connected queue pair minted by a Provider.
// The connect/accept contract: each side creates its endpoint, sends its
// Desc to the peer (host control plane), and calls Connect with the peer's
// Desc; work may be posted only after Connect succeeds locally.
type Endpoint interface {
	// Desc returns the descriptor the peer passes to Connect.
	Desc() Desc
	// Connect binds the endpoint to the remote endpoint described by
	// remote and transitions it to ready (verbs RTR+RTS).
	Connect(remote Desc) error
	// PostSend posts a send-side work request.
	PostSend(wr *SendWR) error
	// PostRecv posts a receive-side work request (see RecvWR on reuse).
	PostRecv(wr *RecvWR) error
	// Outstanding reports in-flight send work requests (window occupancy).
	Outstanding() int
	// RecvQueueLen reports posted-and-unconsumed receive work requests.
	RecvQueueLen() int
	// MaxInline returns the largest inline-postable payload.
	MaxInline() int
}

// Caps carries a provider's protocol preferences: the switch points of the
// active-message engine (internal/ucx) running over it.
type Caps struct {
	// EagerMax is the bounce-copy (eager/bcopy) threshold.
	EagerMax int
	// RndvThreshold is the eager/rendezvous switch point.
	RndvThreshold int
}

// Host is the rank-side environment a provider instance runs in,
// implemented by *mpi.Rank. It gives providers identity, the simulation
// engine, a control plane for descriptor exchange, and wakeup plumbing.
type Host interface {
	// ID returns the rank number.
	ID() int
	// Engine returns the simulation engine.
	Engine() *sim.Engine
	// Hardware returns the host's platform handle (the *cluster.Node for
	// this simulator). Providers downcast to what they understand.
	Hardware() any
	// SendCtrl delivers (kind, data) to the destination rank's registered
	// control handler.
	SendCtrl(dst int, kind string, data any)
	// HandleCtrl registers the handler for control messages of a kind.
	HandleCtrl(kind string, fn func(from int, data any))
	// Wake broadcasts the host's activity condition (completions or
	// control state changed; WaitOn predicates should re-evaluate).
	Wake()
	// CompletionCost is the software cost charged per drained completion.
	CompletionCost() time.Duration
}

// Provider is one rank's instance of a transport backend.
type Provider interface {
	// Name returns the provider's name ("verbs", "shm").
	Name() string
	// Caps advertises protocol thresholds.
	Caps() Caps
	// RegMem registers buf for local and remote access.
	RegMem(buf []byte) (Mem, error)
	// NewEndpoint mints an unconnected endpoint.
	NewEndpoint(cfg EndpointConfig) (Endpoint, error)
	// Progress drains every completion currently queued, charging the
	// host's completion cost per item and dispatching each to its
	// endpoint's OnCompletion callback; it returns the number drained.
	// The host calls it only under its progress try-lock, so providers
	// need no locking of their own.
	Progress(p *sim.Proc) int
}

// CheckSeg validates a Seg against its Mem bounds, returning ErrMemBounds
// wrapped with context on violation. Providers share it so misuse reports
// identically everywhere.
func CheckSeg(s Seg) error {
	if s.Mem == nil {
		return fmt.Errorf("%w: nil Mem", ErrMemBounds)
	}
	if s.Off < 0 || s.Len < 0 || s.Off+s.Len > s.Mem.Len() {
		return fmt.Errorf("%w: [%d,%d) of %d B region", ErrMemBounds, s.Off, s.Off+s.Len, s.Mem.Len())
	}
	return nil
}
