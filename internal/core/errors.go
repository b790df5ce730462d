package core

import (
	"errors"
	"fmt"
)

// Typed errors returned by the module. The taxonomy is split by who can
// cause the error and where it surfaces; `partlint`'s nopanic analyzer
// enforces that the module reports every failure through one of these
// instead of panicking.
//
// Caller-misuse errors (MPI_ERR_ARG class), returned synchronously from
// the public entry points:
//
//   - ErrPartitionRange — partition index or range outside [0, partitions)
//   - ErrPartitionState — lifecycle violation (Pready twice in a round,
//     Pready before Start, postRun over an unready/sent partition)
//
// Asynchronous protocol errors, recorded on the Engine by completion and
// control-message callbacks (which run at event context and have no caller
// to return to) and surfaced by Start/Wait/Test/Pready and Engine.Err:
//
//   - ErrCompletionStatus — a transport completion carried an error
//     status, or a completion arrived with an unexpected opcode
//   - ErrUnknownRequest — a control message or baseline arrival named a
//     request id this rank never allocated
//   - ErrMalformedCredit — a round-credit grant named an unknown request
//   - ErrDuplicateArrival — a partition arrived twice in one round
//   - ErrSetupMismatch — sender and receiver disagree on the request
//     shape (partition count, buffer size, endpoint count)
//
// ErrUnknownProvider, returned by NewEngine, names a transport other than
// the one there is.
var (
	// ErrUnknownProvider reports a NewEngine provider name other than
	// "verbs".
	ErrUnknownProvider = errors.New("core: unknown provider")
	// ErrPartitionRange reports a partition index or range outside the
	// request's [0, partitions) space.
	ErrPartitionRange = errors.New("core: partition index out of range")
	// ErrPartitionState reports a lifecycle violation on a partition, such
	// as marking the same partition ready twice in one round.
	ErrPartitionState = errors.New("core: partition in wrong state")
	// ErrCompletionStatus reports a transport completion that carried an
	// error status (the verbs WC status class) or an unexpected opcode.
	ErrCompletionStatus = errors.New("core: completion with error status")
	// ErrUnknownRequest reports a control message or data arrival for a
	// request id this rank never allocated.
	ErrUnknownRequest = errors.New("core: message for unknown request")
	// ErrMalformedCredit reports a round-credit grant that named an
	// unknown request.
	ErrMalformedCredit = errors.New("core: malformed credit grant")
	// ErrDuplicateArrival reports a user partition that arrived twice in
	// the same round.
	ErrDuplicateArrival = errors.New("core: duplicate partition arrival")
	// ErrSetupMismatch reports a sender/receiver disagreement on request
	// shape discovered during the init handshake.
	ErrSetupMismatch = errors.New("core: sender/receiver setup mismatch")
)

// Static error instances for the post and completion paths. Those paths
// run once per partition and are held at zero steady-state allocations by
// the AllocsPerRun gates in `make allocs`, so they must not construct
// errors with fmt.Errorf (it allocates); they return these pre-built
// values instead, each wrapping its typed class so errors.Is still
// matches.
var (
	errArrivalRange     = fmt.Errorf("%w: arrival range outside request partitions", ErrPartitionRange)
	errRecvCompletion   = fmt.Errorf("%w: receive completion reported failure", ErrCompletionStatus)
	errRecvUnexpected   = fmt.Errorf("%w: receive completion with unexpected opcode", ErrCompletionStatus)
	errSendCompletion   = fmt.Errorf("%w: send completion reported failure", ErrCompletionStatus)
	errDuplicateArrival = fmt.Errorf("%w: partition arrived twice in one round", ErrDuplicateArrival)
	errPostRunState     = fmt.Errorf("%w: postRun over a partition not ready or already sent", ErrPartitionState)
)
