package bench

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
)

// newWorld builds the MPI world of one bench run on the cluster cfg
// describes, one rank per node, and the partitioned module (core.Engine)
// of each rank. The cluster is validated before it is built: cluster.New
// panics on an invalid configuration, and a panic raised inside a job
// pool worker would take the whole process down.
func newWorld(cfg cluster.Config) (*mpi.World, []*core.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	w := mpi.NewWorld(mpi.Config{Cluster: cfg})
	engines := make([]*core.Engine, cfg.Nodes)
	for i := range engines {
		eng, err := core.NewEngine(w.Rank(i), "")
		if err != nil {
			return nil, nil, err
		}
		engines[i] = eng
	}
	return w, engines, nil
}
