// Package xport is the transport every communication layer of the stack
// programs against: the simulated InfiniBand device (internal/ibv over
// internal/fabric), in the layout the paper's module uses. The
// aggregation strategies (internal/core), the UCX-like active-message
// engine (internal/ucx), the point-to-point layer (internal/pt2pt) and
// the benchmarks all post work through it.
//
// It has four load-bearing contracts:
//
//   - Provider: one rank's device context and protection domain. It
//     registers memory (Mem), mints Endpoints, and drains its completions
//     (Progress).
//   - Endpoint: one reliable connected queue pair. Endpoints exchange
//     descriptors (Desc) through the rank's control plane and are
//     connected with Connect; work is posted with PostSend/PostRecv. A
//     non-inline send's payload is read when it lands, not when it is
//     posted, so it stays the caller's to leave untouched until the WR
//     completes (see SendWR).
//   - Mem: a registered memory region addressable by (Addr, RKey) for
//     remote access and sliced locally into Segs.
//   - Completion delivery: the transport never calls application code
//     directly. Completions queue in the device's CQs and are drained by
//     the rank's progress engine through Provider.Progress, preserving the
//     paper's single-threaded try-lock progress semantics (§IV-A): each
//     drained completion charges the rank's completion cost to the
//     progressing proc and is dispatched to the owning endpoint's
//     OnCompletion callback.
//
// Device errors from PostSend and PostRecv are wrapped with a typed error
// class (ErrNotConnected, ErrMemBounds, ErrTooLong, ErrQueueFull), so
// errors.Is matches both the class and the ibv error.
package xport

import (
	"errors"

	"repro/internal/ibv"
	"repro/internal/sim"
)

// Typed misuse errors. Entry points wrap these with context via
// fmt.Errorf("...: %w", Err...), so callers test with errors.Is.
var (
	// ErrUnknownProvider is returned when a caller names a transport
	// other than "verbs", the only one there is.
	ErrUnknownProvider = errors.New("xport: unknown provider")
	// ErrNotConnected is returned when work is posted on an endpoint that
	// has not completed Connect.
	ErrNotConnected = errors.New("xport: endpoint not connected")
	// ErrForeignMem is returned when a Seg references a Mem registered
	// in another rank's protection domain.
	ErrForeignMem = errors.New("xport: Mem of another protection domain")
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

// Work-request opcodes, the verbs set.
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
// endpoint's OnCompletion callback from the rank's progress engine.
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

// Mem is a registered memory region of the rank's protection domain:
// locally sliceable bytes (Bytes, Len) addressable remotely by (Addr,
// RKey). It is valid only on the rank that registered it.
type Mem = *ibv.MR

// Seg is a scatter/gather element: the range mem.Bytes()[Off : Off+Len].
type Seg struct {
	Mem Mem
	Off int
	Len int
}

// SendWR is a send-side work request.
//
// Buffer ownership follows the verbs rule the paper's zero-copy design
// relies on. PostSend reads the WR itself, including the Segs slice,
// before it returns, so both may be reused at once. The bytes the Segs
// name are different: a non-inline WR reads them when they land at the
// destination, and the caller must not modify them until the WR
// completes. An Inline WR copies its payload at post time, so its buffer
// is reusable as soon as PostSend returns. A read's Segs receive the
// fetched data when the WR completes.
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
// Post RecvWRs by pointer: PostRecv converts the scatter list once and
// caches it in the WR, so reposting the same RecvWR is allocation-free.
// A RecvWR belongs to the rank whose endpoint first posted it.
type RecvWR struct {
	WRID uint64
	Segs []Seg
	prep *ibv.RecvWR
}

// Desc is an endpoint descriptor, exchanged between peers through the
// rank's control plane (like a serialized QPN/LID pair).
type Desc = *ibv.QP

// EndpointConfig configures endpoint creation.
type EndpointConfig struct {
	// MaxSendWR is the send-queue depth. Zero selects the device default.
	MaxSendWR int
	// MaxRecvWR is the receive-queue depth. Zero selects the device
	// default.
	MaxRecvWR int
	// MaxOutstanding caps concurrently in-flight work requests (the
	// ConnectX-5 window of 16 the paper works around with multiple
	// endpoints). Zero selects the device default.
	MaxOutstanding int
	// OnCompletion receives this endpoint's completions from the rank's
	// progress engine. It must be non-nil.
	OnCompletion func(p *sim.Proc, c Completion)
}
