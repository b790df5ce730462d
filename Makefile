# Development entry points. `make check` runs the gates CI runs on every
# PR: gofmt, vet, the partlint analyzer suite (plain and under the race
# build tag), build, the full test suite, the race detector over
# the shared-memory layers and the transport, the zero-alloc gates, and
# the repository benchmark's smoke test. CI also runs staticcheck and
# govulncheck (not vendored) and the examples.

GO ?= go

.PHONY: check fmt vet lint lint-tags staticcheck build test race allocs bench bench-smoke

check: fmt vet lint lint-tags build test race allocs bench-smoke

# Gofmt gate; CI's Gofmt step calls this target. Analyzer fixtures under
# testdata/ are excluded: their `// want` comments are matched by line,
# so reformatting them would move expectations.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# partlint is the repository's own analyzer suite (DESIGN.md §10, §14):
# the determinism analyzer (wall-clock, math/rand and map-order bans plus
# the per-function cross-engine clock rule), the shard-protocol safety
# checks (//partib:atomic, //partib:guard, CAS claim gates) and the
# typed-error no-panic contract. Every rule reports at the defect's site
# and nothing can be waived. Allocation is guarded by the measured gates
# of `make allocs`, and a completion handler that parks by a runtime
# guard in the sim primitives (a typed error from Run, see
# TestHandlerSleepInDrain), not by the analyzers. It runs through the go
# vet driver so results are cached per package.
lint:
	$(GO) build -o bin/partlint ./cmd/partlint
	$(GO) vet -vettool=$(CURDIR)/bin/partlint ./...

# Build-tag guard: the suite must be clean under every shard-relevant
# tag. The untagged pass is `make lint`; this target adds the race tag.
# The repository currently builds the same files under both, but the
# loop keeps tag-gated files (e.g. a future purego/cgo verbs split) from
# escaping analysis.
lint-tags:
	$(GO) build -o bin/partlint ./cmd/partlint
	for tags in "race"; do \
		echo "== partlint -tags '$$tags'"; \
		$(GO) vet -vettool=$(CURDIR)/bin/partlint -tags "$$tags" ./... || exit 1; \
	done

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
# clusters end to end (serial against sharded, and across shard-worker
# counts, under every strategy the adaptive one included), and the cluster differentials that run incast and
# permutation flows over sharded fat-tree and dragonfly fabrics. The
# fabric line covers the multi-switch congestion paths (incast on the
# shared down-link, link saturation, route spread) and same-instant
# control arrivals at one port from senders on several shards.
# The sim and sharded lines run at -cpu 1,2: procs are coroutines that any
# shard worker may resume, so switches are exercised on one P and across
# two. The ibv and ucx line covers the verbs data path: a send's or
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
	$(GO) test -race -cpu 1,2 ./internal/sim/...
	$(GO) test -race ./internal/sweep/... ./internal/tuning/... ./internal/core/... ./internal/mpi/... ./internal/netgauge/...
	$(GO) test -race ./internal/ibv/... ./internal/ucx/...
	$(GO) test -race -cpu 1,2 -run 'Sharded|WorkerCount' ./internal/bench/
	$(GO) test -race -cpu 1,2 -run 'ShardedMatchesSerial' ./internal/cluster/
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
	$(GO) test -bench . -benchmem -run xxx ./internal/fabric/ ./internal/profiler/
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
