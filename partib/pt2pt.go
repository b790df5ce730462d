package partib

import "repro/internal/pt2pt"

// Point-to-point types, re-exported so applications can mix partitioned
// transfers with ordinary MPI-style messages.
type (
	// Comm is a rank's point-to-point engine (Send/Recv/Isend/Irecv with
	// tag matching and wildcards).
	Comm = pt2pt.Comm
	// SendReq and RecvReq are nonblocking request handles.
	SendReq = pt2pt.SendReq
	RecvReq = pt2pt.RecvReq
)

// Wildcards for point-to-point matching.
const (
	AnySource = pt2pt.AnySource
	AnyTag    = pt2pt.AnyTag
)

// NewComm creates the point-to-point engine for a rank over the default
// ("verbs") transport provider. It runs on its own control channel, so it
// coexists with a partitioned Engine on the same rank.
func NewComm(r *Rank) (*Comm, error) { return pt2pt.New(r, "") }

// NewCommOn is NewComm over a named transport provider ("verbs" or
// "shm").
func NewCommOn(r *Rank, provider string) (*Comm, error) { return pt2pt.New(r, provider) }
