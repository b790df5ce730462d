package mpi

import "repro/internal/sim"

// Control-message kinds used by the barrier.
const (
	ctrlBarrierArrive  = "mpi.barrier.arrive"
	ctrlBarrierRelease = "mpi.barrier.release"
)

// barrierState tracks a generation-counted central barrier rooted at
// rank 0.
type barrierState struct {
	// generation counts completed barriers on this rank.
	generation int64
	// arrived counts arrivals at the root for the current generation.
	arrived int
	release *sim.Cond
}

// initBarrierHandlers is called once per rank at construction. A release
// carries no payload: every rank takes part in every barrier, so each
// release advances its generation by exactly one.
func (r *Rank) initBarrierHandlers() {
	r.HandleCtrl(ctrlBarrierRelease, func(int, any) {
		r.barrier.generation++
		r.barrier.release.Broadcast()
	})
	if r.id == 0 {
		r.HandleCtrl(ctrlBarrierArrive, func(_ int, _ any) {
			r.barrier.arrived++
			if r.barrier.arrived == r.w.Size() {
				r.barrier.arrived = 0
				for dst := 1; dst < r.w.Size(); dst++ {
					r.SendCtrl(dst, ctrlBarrierRelease, nil)
				}
				r.barrier.generation++
				r.barrier.release.Broadcast()
			}
		})
	}
}

// Barrier blocks the calling proc until every rank in the world has
// entered the same barrier generation. Exactly one proc per rank may use
// the barrier at a time (as with MPI_Barrier on a communicator).
func (r *Rank) Barrier(p *sim.Proc) {
	want := r.barrier.generation + 1
	r.SendCtrl(0, ctrlBarrierArrive, nil)
	for r.barrier.generation < want {
		r.barrier.release.Wait(p)
	}
}
