package ibv

import "repro/internal/sim"

// Status is a work-completion status code.
type Status int

// Work-completion statuses, mirroring ibv_wc_status.
const (
	StatusSuccess Status = iota
	// StatusLocProtErr: a local buffer violated its memory region.
	StatusLocProtErr
	// StatusRemAccessErr: the remote range or rkey was invalid.
	StatusRemAccessErr
	// StatusRNRRetryExceeded: the responder had no receive WR posted.
	StatusRNRRetryExceeded
	// StatusLenErr: an inbound message overran the receive buffer.
	StatusLenErr
	// StatusWRFlushErr: the WR was flushed when the QP entered the error
	// state.
	StatusWRFlushErr
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusLocProtErr:
		return "local protection error"
	case StatusRemAccessErr:
		return "remote access error"
	case StatusRNRRetryExceeded:
		return "RNR retry exceeded"
	case StatusLenErr:
		return "length error"
	case StatusWRFlushErr:
		return "WR flushed"
	default:
		return "unknown status"
	}
}

// WCOpcode identifies what kind of work a completion reports.
type WCOpcode int

// Work-completion opcodes.
const (
	WCSend WCOpcode = iota
	WCRDMAWrite
	WCRDMARead
	WCRecv
	WCRecvRDMAWithImm
)

func (o WCOpcode) String() string {
	switch o {
	case WCSend:
		return "SEND"
	case WCRDMAWrite:
		return "RDMA_WRITE"
	case WCRDMARead:
		return "RDMA_READ"
	case WCRecv:
		return "RECV"
	case WCRecvRDMAWithImm:
		return "RECV_RDMA_WITH_IMM"
	default:
		return "unknown opcode"
	}
}

// WC is a work completion.
type WC struct {
	WRID    uint64
	Status  Status
	Opcode  WCOpcode
	ByteLen int
	// Imm carries the immediate data for *_WITH_IMM opcodes; HasImm
	// distinguishes a real zero immediate from absence.
	Imm    uint32
	HasImm bool
	QPN    uint32
}

// CQ is a completion queue. Completions beyond the queue's depth are an
// overrun: they are dropped and the overrun flag latches, as a CQ overrun
// on hardware is unrecoverable.
//
// Completion delivery is callback-native and batched: push appends the WC
// and arms a single notification event at the current virtual instant, so
// a burst of same-instant completions fires the notify callback exactly
// once rather than per WC — the interrupt-coalescing behaviour of a real
// completion channel.
type CQ struct {
	eng   *sim.Engine
	depth int
	// queue[head:] are the completions waiting to be polled; Poll advances
	// head and the backing array is reused once drained.
	queue         []WC
	head          int
	overrun       bool
	notify        func()
	notifyPending bool
}

// SetNotify installs a callback invoked when completions are added — the
// equivalent of arming a completion channel with ibv_req_notify_cq. The
// callback runs at event context and must not block; same-instant
// completions are coalesced into one invocation.
func (cq *CQ) SetNotify(fn func()) { cq.notify = fn }

// fireCQNotify is the coalesced per-instant notification event.
func fireCQNotify(_ sim.Time, arg any) {
	cq := arg.(*CQ)
	cq.notifyPending = false
	if cq.notify != nil {
		cq.notify()
	}
}

// push appends a completion, latching overrun when the queue is full.
func (cq *CQ) push(wc WC) {
	if cq.Len() >= cq.depth {
		cq.overrun = true
		return
	}
	cq.queue = append(cq.queue, wc)
	if !cq.notifyPending {
		cq.notifyPending = true
		cq.eng.AtCall(cq.eng.Now(), fireCQNotify, cq)
	}
}

// Poll drains up to len(dst) completions into dst and returns how many were
// written, as ibv_poll_cq does. Polling costs no virtual time; callers that
// model CPU cost per completion (the MPI progress engine) charge it
// themselves.
func (cq *CQ) Poll(dst []WC) int {
	n := copy(dst, cq.queue[cq.head:])
	cq.head += n
	if cq.head == len(cq.queue) {
		cq.queue = cq.queue[:0]
		cq.head = 0
	}
	return n
}

// Len reports the number of completions waiting to be polled.
func (cq *CQ) Len() int { return len(cq.queue) - cq.head }

// Overrun reports whether a completion was ever dropped for lack of space.
func (cq *CQ) Overrun() bool { return cq.overrun }
