package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/trace"
)

// plan says how one invocation measures a workload.
type plan struct {
	seed uint64
	// seconds is the wall budget for untraced repetitions (at least
	// minReps of them) and the reference and setup-only jobs after each.
	seconds float64
	minReps int
	// layers adds traced repetitions and one at GOMAXPROCS = nproc for the
	// per-layer metrics.
	layers bool
}

// measureProcs is the GOMAXPROCS every measurement runs at. The simulator's
// procs hand control to each other through the Go scheduler. With a second
// P every hand-off can wake a thread on the other vCPU, whose cost depends
// on the rest of the host; on one P the same runs were faster and steadier
// (README, Findings).
const measureProcs = 1

// setupWarmup is the number of setup-only jobs each measurement runs before
// it counts any.
const setupWarmup = 20

// outcome is what one invocation measured for a workload.
type outcome struct {
	w         *workload
	attempted int // measured rounds attempted over every repetition
	failed    int // measured rounds of failed repetitions
	reps      int
	problems  []string
	endToEnd  map[string]value // nil when no untraced repetition passed
	perLayer  map[string]value // nil unless the layers were measured
	traced    *rep
}

// measure runs the workload's repetitions. Every repetition replays the
// same seed, so each must reproduce the reference run's virtual outcome
// exactly: the serial oracle for a sharded workload, otherwise the first
// passing repetition.
func measure(w *workload, pl plan) *outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	o := &outcome{w: w}
	var ref, oracle *rep
	if w.shards > 1 {
		oracle = runRep(w, pl.seed, repOptions{shards: 1})
		ref = oracle
		if oracle.err != nil {
			o.problems = append(o.problems, fmt.Sprintf("serial oracle: %v", oracle.err))
		}
	}
	accept := func(kind string, r *rep) bool {
		o.reps++
		o.attempted += w.rounds
		switch {
		case r.err != nil:
		case ref == nil:
			ref = r
		case ref.err != nil:
			r.err = fmt.Errorf("no serial oracle to check against")
		case r.fingerprint != ref.fingerprint:
			r.err = errMismatch
		}
		if r.err != nil {
			o.failed += w.rounds
			o.problems = append(o.problems, fmt.Sprintf("%s repetition: %v", kind, r.err))
			return false
		}
		return true
	}

	// Setup is short next to a repetition, and its median needs more
	// samples than the repetitions give: after every repetition, setup-only
	// jobs run for a tenth of its time. Spread over the run like the
	// repetitions, they see the same host speed as the reference job. The
	// first setups of a process run several times slower (a 2-rank setup
	// settles after about 15 jobs), so setupWarmup jobs go uncounted.
	var setups, untraced []*rep
	setupJobs := func(n int, budget time.Duration) {
		for t0 := time.Now(); n > 0 || time.Since(t0) < budget; n-- {
			r := runRep(w, pl.seed, repOptions{shards: w.shards, setupOnly: true})
			if r.err != nil {
				o.problems = append(o.problems, fmt.Sprintf("setup-only job: %v", r.err))
				return
			}
			// Keep the numbers only: what the job built is garbage that the
			// next repetition's GC would otherwise have to mark.
			r.logs, r.ranks = nil, nil
			setups = append(setups, r)
		}
	}
	start := time.Now()
	setupJobs(setupWarmup, 0)
	setups = setups[:0] // the warm-up goes uncounted
	repsStart := time.Now()
	for n := 0; ; n++ {
		perRep := time.Since(repsStart).Seconds() / float64(n)
		if n >= pl.minReps && time.Since(start).Seconds()+perRep > pl.seconds {
			break
		}
		t := time.Now()
		if r := runRep(w, pl.seed, repOptions{shards: w.shards}); accept("untraced", r) {
			r.refS = reference()
			untraced = append(untraced, r)
		}
		setupJobs(1, time.Since(t)/10)
	}
	if len(untraced) > 0 {
		o.endToEnd = endToEndValues(untraced, setups)
	}
	if !pl.layers {
		return o
	}

	// At the default 100 Hz one repetition's measured phase can give under
	// a hundred CPU samples; repeat the traced run (up to three times) until
	// the profiles hold enough to make each layer's share meaningful.
	var traced []*rep
	counts := map[string]uint64{}
	for samples := uint64(0); len(traced) < 3 && (len(traced) == 0 || samples < 300); {
		r := runRep(w, pl.seed, repOptions{shards: w.shards, traced: true})
		if !accept("traced", r) {
			return o
		}
		c, err := cpuSamples(r.marks.profile.Bytes())
		if err != nil {
			o.problems = append(o.problems, err.Error())
			return o
		}
		for l, n := range c {
			counts[l] += n
			samples += n
		}
		traced = append(traced, r)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	allProcs := runRep(w, pl.seed, repOptions{shards: w.shards})
	runtime.GOMAXPROCS(measureProcs)
	if !accept("GOMAXPROCS=nproc", allProcs) || len(untraced) == 0 {
		return o
	}
	o.perLayer = perLayerValues(layerInputs{untraced: untraced, setups: setups, traced: traced, allProcs: allProcs, oracle: oracle, cpu: counts})
	o.traced = traced[0]
	return o
}

// writeTrace merges the traced repetition's per-rank span buffers into one
// trace recorder and writes dir/<workload>.trace.json (Perfetto) and
// dir/<workload>.cpu.pprof.
func writeTrace(dir string, r *rep) error {
	rec := trace.New()
	key := func(rank, req, round int) string { return fmt.Sprintf("round/%d/%d/%d", rank, req, round) }
	for _, rs := range r.ranks {
		for _, s := range rs.spans {
			args := map[string]string{"round": strconv.Itoa(s.round)}
			if s.req >= 0 {
				args["request"] = strconv.Itoa(s.req)
			}
			switch {
			case s.name != "round":
				args["parent"] = key(rs.id, s.req, s.round)
			case s.req >= 0:
				args["id"], args["parent"] = key(rs.id, s.req, s.round), key(rs.id, -1, s.round)
			default:
				args["id"] = key(rs.id, -1, s.round)
			}
			rec.Span(s.name, s.from, s.to, rs.id, s.tid, args)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.w.name+".trace.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := rec.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.w.name+".cpu.pprof"), r.marks.profile.Bytes(), 0o644)
}
