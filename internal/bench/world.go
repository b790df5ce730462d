package bench

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// WorldSpec describes the machine one bench run executes on.
type WorldSpec struct {
	// Ranks is the world size.
	Ranks int
	// Shards partitions the simulation into this many conservative-PDES
	// shards (see cluster.Config.Shards); 0 or 1 runs serial.
	Shards int
	// Topo selects the fabric topology by spec (see fabric.ParseTopology);
	// empty keeps the default single-link fabric.
	Topo string
}

// NewWorld builds the MPI world of one bench run on Niagara nodes, one
// rank per node, and the partitioned module (core.Engine) of each rank.
// The cluster is validated before it is built: cluster.New panics on an
// invalid configuration, and a panic raised inside a sweep worker would
// take the whole process down.
func NewWorld(s WorldSpec) (*mpi.World, []*core.Engine, error) {
	clCfg := cluster.NiagaraConfig(s.Ranks)
	clCfg.Shards = s.Shards
	if s.Topo != "" {
		topo, err := fabric.ParseTopology(s.Topo)
		if err != nil {
			return nil, nil, err
		}
		clCfg.Fabric.Topo = topo
	}
	if err := clCfg.Validate(); err != nil {
		return nil, nil, err
	}
	w := mpi.NewWorld(mpi.Config{Cluster: clCfg})
	engines := make([]*core.Engine, s.Ranks)
	for i := range engines {
		eng, err := core.NewEngine(w.Rank(i), "")
		if err != nil {
			return nil, nil, err
		}
		engines[i] = eng
	}
	return w, engines, nil
}
