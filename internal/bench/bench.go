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
// others Sweep3D and Halo.
// Benchmarks follow the paper's protocol: warm-up iterations are discarded
// and one user partition is assigned to each thread.
package bench
