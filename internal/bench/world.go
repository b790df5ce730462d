package bench

import (
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mpi"
)

// WorldSpec describes the machine one bench run executes on.
type WorldSpec struct {
	// Ranks is the world size.
	Ranks int
	// Provider names the transport provider ("" selects "verbs").
	Provider string
	// Shards partitions the simulation into this many conservative-PDES
	// shards (see cluster.Config.Shards); 0 or 1 runs serial.
	Shards int
	// Topo selects the fabric topology by spec (see fabric.ParseTopology);
	// empty keeps the default single-link fabric.
	Topo string
}

// NewWorld builds the MPI world of one bench run on Niagara nodes and one
// engine per rank from newEngine (core.NewEngine for the partitioned
// module). Every rank gets a node of its own, except under the intra-node
// shm provider, which cannot cross the fabric and so gets all ranks on
// one node. That node pools the cores of the nodes it replaces, so the
// ranks' compute contends for no more CPU than it does with a node each
// and the grid patterns' compute subtraction still holds. The cluster is
// validated before it is built: cluster.New panics on an invalid
// configuration, and a panic raised inside a sweep worker would take the
// whole process down.
func NewWorld[E any](s WorldSpec, newEngine func(*mpi.Rank, string) (E, error)) (*mpi.World, []E, error) {
	clCfg := cluster.NiagaraConfig(s.Ranks)
	ranksPerNode := 0
	if s.Provider == "shm" {
		clCfg.Nodes, clCfg.CoresPerNode = 1, s.Ranks*clCfg.CoresPerNode
		ranksPerNode = s.Ranks
	}
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
	w := mpi.NewWorld(mpi.Config{Cluster: clCfg, RanksPerNode: ranksPerNode})
	engines := make([]E, s.Ranks)
	for i := range engines {
		eng, err := newEngine(w.Rank(i), s.Provider)
		if err != nil {
			return nil, nil, err
		}
		engines[i] = eng
	}
	return w, engines, nil
}
