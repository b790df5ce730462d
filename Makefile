# Development entry points. `make check` runs the gates CI runs on every
# PR: gofmt, vet (this module and the benchmark module), build, the full
# test suite (which includes the partlint analyzers over the module's own
# packages), the race detector over the shared-memory layers and the
# transport, the zero-alloc gates, and the repository benchmark's smoke
# test. CI also runs staticcheck and
# govulncheck (not vendored) and the examples.

GO ?= go

.PHONY: check fmt vet staticcheck build test race allocs bench bench-smoke

check: fmt vet build test race allocs bench-smoke

# Gofmt gate; CI's Gofmt step calls this target. Analyzer fixtures under
# testdata/ are excluded: their `// want` comments are matched by line,
# so reformatting them would move expectations.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The benchmark directory is its own module, which `go vet ./...` at the
# root does not enter. CI's Vet step calls this target.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# staticcheck is not vendored; install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	staticcheck ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep pool and the tuning search are the layers where multiple
# goroutines touch shared memory; core and the mpi harness ride under
# them in parallel sweeps, so race-check all four on every PR — plus the
# sim package, whose ShardSet runs engines on a spin/park worker fleet,
# netgauge, whose gauges feed the loggp calibration consumed inside
# those sweeps, the bench differential tests that drive sharded
# clusters end to end (serial against sharded, under every strategy the
# adaptive one included), and the cluster differentials that run incast and
# permutation flows over sharded fat-tree and dragonfly fabrics. The
# fabric line covers the multi-switch congestion paths (incast on the
# shared down-link, link saturation, route spread) and same-instant
# control arrivals at one port from senders on several shards.
# The sim and sharded lines run at -cpu 1,2: procs are coroutines that any
# shard worker may resume, so switches are exercised on one P and across
# two. They also run under -timeout 3m, well above their few seconds: a
# shard claim-gate livelock shows only as a hang, and the timeout fails
# it in minutes rather than after go test's ten-minute default. The ibv and ucx line covers the verbs data path: a send's or
# write's payload is read from the sender's memory when it lands, which on a
# sharded run happens on the destination's engine; ibv's contract tests
# run here under the race detector. The mpi line above covers the rank's
# device context and drain, and mpi's verbs conformance suite, which
# connects and posts on QPs made by mpi.Rank.CreateQP; those build their
# fabric flows at first use. The ucx transport's clients, core's baseline strategy and
# netgauge, are race-checked on the line above. The experiments line
# covers the one job pool every exhibit runs on: TestSerialParallelParity
# runs the whole quick registry at 4 workers, so jobs of different
# experiments, and the tuning searches their tables come from, share the
# pool there. CI runs this target.
race:
	$(GO) test -race -cpu 1,2 -timeout 3m ./internal/sim/...
	$(GO) test -race ./internal/sweep/... ./internal/tuning/... ./internal/core/... ./internal/mpi/... ./internal/netgauge/...
	$(GO) test -race ./internal/ibv/... ./internal/ucx/...
	$(GO) test -race -cpu 1,2 -timeout 3m -run 'Sharded' ./internal/bench/
	$(GO) test -race -cpu 1,2 -timeout 3m -run 'ShardedMatchesSerial' ./internal/cluster/
	$(GO) test -race -run 'Incast|SaturateLink|BandwidthNeverExceeds|Route|ControlSameInstant' ./internal/fabric/
	$(GO) test -race -run 'SerialParallelParity' ./internal/experiments/

# Allocation and footprint gates, the repository's one allocation guard:
# the *SteadyStateZeroAllocs tests measure that the sim scheduler (near,
# far and sharded), procs and resources, the fabric on a single link and
# on a routed fat-tree, the ibv data path (writes, sends and RDMA READs),
# the mpi control plane, and a core partitioned round (core's post and
# completion paths, ibv posts and the rank's progress drain) make no
# steady-state allocation; TestWorldSetupHeapPerRank and
# TestWorldRoundHeapPerRank bound the live heap a rank of a 256-rank
# sweep3d job holds after setup and after one full round. CI runs this
# target.
allocs:
	$(GO) test -run SteadyStateZeroAllocs -v ./internal/sim/ ./internal/fabric/ ./internal/ibv/ ./internal/mpi/ ./internal/core/
	$(GO) test -run 'TestWorld(Setup|Round)HeapPerRank' -v ./internal/bench/

# Benchmarks: the allocation gates, then the named engine benchmarks
# report per-op allocation counts, then the paper-exhibit benchmarks run
# in quick mode.
bench: allocs
	$(GO) test -bench 'BenchmarkEngineEventChurn|BenchmarkProcParkResume|BenchmarkProcSleepInPlace|BenchmarkResourceHandoff|BenchmarkScheduleFire|BenchmarkTimerStopStart' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench . -benchmem -run xxx ./internal/fabric/
	$(GO) test -bench BenchmarkWorldSetup -benchmem -run xxx ./internal/bench/
	$(GO) test -bench BenchmarkProgressDrain -benchmem -run xxx ./internal/mpi/
	$(GO) test -bench . -benchmem -run xxx .

# Smoke test of the repository benchmark (benchmark/, its own module):
# every workload runs on a toy size and its virtual-time outcome must be
# byte-identical across repeats. The perf record itself is
# `bash benchmark/run.sh`; the correctness gates (PDES parity and the
# dispatch-window ceiling, the adaptive never-worse guard, single-link
# parity) are tests under `go test ./...`.
bench-smoke:
	cd benchmark && $(GO) test ./...
