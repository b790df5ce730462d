package partib

import (
	"fmt"
	"time"

	"repro/internal/loggp"
	"repro/internal/netgauge"
	"repro/internal/ploggp"
	"repro/internal/tuning"
)

// Modelling and tuning types, re-exported for users who want to drive the
// aggregation decisions themselves.
type (
	// LogGPParams is a LogGP parameter set {L, o_s, o_r, g, G}.
	LogGPParams = loggp.Params
	// TuningSearchConfig bounds the brute-force aggregation search.
	TuningSearchConfig = tuning.SearchConfig
)

// NiagaraParams returns the MPI-measured LogGP parameter set the paper's
// model runs with (reproduces its Table I exactly).
func NiagaraParams() LogGPParams { return loggp.NiagaraMeasured() }

// MeasureLogGP runs the Netgauge-equivalent measurement over a fresh
// two-node simulated job and returns the fitted parameters.
func MeasureLogGP() (LogGPParams, error) {
	return netgauge.Run(netgauge.Config{})
}

// SearchTuningTable runs the exhaustive (transport partitions, QPs) search
// of the paper's Section IV-B and returns the winning table, to compare
// with OptimalTransport's picks.
func SearchTuningTable(cfg TuningSearchConfig) (*TuningTable, error) {
	return tuning.Search(cfg)
}

// OptimalTransport is a convenience wrapper: the PLogGP-model transport
// partition count for an aggregate message of the given size, a user
// partition count, and a laggard delay (the paper models with 4 ms). A
// size or partition count below one is an error.
func OptimalTransport(bytes, userParts int, delay time.Duration) (int, error) {
	if bytes < 1 || userParts < 1 {
		return 0, fmt.Errorf("partib: OptimalTransport needs bytes and userParts >= 1, got %d and %d", bytes, userParts)
	}
	return ploggp.New(NiagaraParams()).OptimalTransport(bytes, userParts, delay), nil
}
