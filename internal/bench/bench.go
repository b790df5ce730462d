// Package bench implements the micro-benchmarks the paper evaluates with —
// the public MPI Partitioned benchmark suite of Temuçin et al. (ICPP'22,
// reference [14]) that Section V builds on:
//
//   - the overhead benchmark (Section V-B): no injected noise, one user
//     partition per thread, measuring wire efficiency per round;
//   - the perceived-bandwidth benchmark (Section V-C): each thread
//     computes (with injected noise on a single laggard thread — the
//     "single thread delay model"), marks its partition ready, and the
//     metric is total bytes divided by the latency between the last
//     MPI_Pready and receive-side completion;
//   - the Sweep3D communication pattern (Section V-D): a 2-D wavefront
//     over a rank grid with partitioned sends east and south;
//   - the halo exchange, the suite's other grid pattern: partitioned face
//     buffers to and from the four periodic neighbours of every rank.
//
// One runner, RunGrid, drives all four with one rank body; the pattern is
// data (GridPattern). The first two are the P2P pattern on a 2×1 grid, the
// others Sweep3D and Halo. Every run builds its machine with NewWorld.
// Benchmarks follow the paper's protocol: warm-up iterations are discarded
// and one user partition is assigned to each thread.
package bench

// jitterPRNG is a seeded splitmix64 generator. The per-thread skew draws
// must be deterministic across runs and math/rand is banned from
// sim-reachable packages (partlint's detertaint analyzer), so the few
// bits needed come from this local generator.
type jitterPRNG uint64

func (s *jitterPRNG) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// int63n returns a draw in [0, n) for n > 0 (modulo bias is irrelevant at
// jitter magnitudes).
func (s *jitterPRNG) int63n(n int64) int64 {
	return int64(s.next()>>1) % n
}
