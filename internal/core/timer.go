package core

import (
	"time"

	"repro/internal/sim"
)

// curDelta returns the δ the timer aggregator arms with: the adaptive
// switcher's tail-derived value when the adaptive strategy is running in
// timer mode, otherwise the static Options value.
func (ps *Psend) curDelta() time.Duration {
	if ps.adapt != nil {
		return ps.adapt.delta
	}
	return ps.delta
}

// timerPready implements the timer-based PLogGP aggregator of Section IV-D
// for one arriving user partition (group-relative index gi):
//
//   - the first thread to arrive in a transport-partition group arms the
//     δ timer by sleeping on the group's condition;
//   - if all of the group's Preadys land before δ expires, the last thread
//     aggregates and sends the whole group (one WR) and the sleeper wakes
//     to find nothing to do (δ = δ_a in the paper's Figure 5);
//   - if δ expires first, the sleeping thread sends the largest contiguous
//     runs of arrived partitions (δ = δ_b: partitions {0,1} and {3} as two
//     WRs in the figure's example);
//   - threads arriving after expiry send their own partition immediately,
//     merged with any adjacent arrived-but-unsent neighbours.
func (ps *Psend) timerPready(p *sim.Proc, g *sendGroup, gi int) error {
	if g.arrived == g.size {
		// Last arrival for the group.
		if !g.fired {
			g.fired = true
			g.cond.Broadcast() // release the sleeping first thread
			return ps.postReadyRuns(p, g)
		}
		return ps.postRunContaining(p, g, gi)
	}
	if !g.armed {
		// First arrival: sleep up to δ, periodically woken by the group
		// condition.
		g.armed = true
		if g.cond.WaitTimeout(p, ps.curDelta()) {
			// Group completed during the sleep; the last thread sent it.
			return nil
		}
		if g.fired {
			// Completion raced the timeout at the same instant and won.
			return nil
		}
		g.fired = true
		return ps.postReadyRuns(p, g)
	}
	if g.fired {
		return ps.postRunContaining(p, g, gi)
	}
	// Otherwise the timer is still armed: this partition will be covered
	// by the timer expiry or by the last arrival.
	return nil
}

// postReadyRuns posts one WR per maximal contiguous run of
// arrived-but-unsent partitions in the group.
func (ps *Psend) postReadyRuns(p *sim.Proc, g *sendGroup) error {
	i := 0
	for i < g.size {
		if !g.ready[i] || g.sent[i] {
			i++
			continue
		}
		j := i
		for j < g.size && g.ready[j] && !g.sent[j] {
			j++
		}
		if err := ps.postRun(p, g, i, j-i); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// postRunContaining posts the maximal contiguous arrived-but-unsent run
// around group-relative index gi.
func (ps *Psend) postRunContaining(p *sim.Proc, g *sendGroup, gi int) error {
	lo := gi
	for lo > 0 && g.ready[lo-1] && !g.sent[lo-1] {
		lo--
	}
	hi := gi + 1
	for hi < g.size && g.ready[hi] && !g.sent[hi] {
		hi++
	}
	return ps.postRun(p, g, lo, hi-lo)
}
