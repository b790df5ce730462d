# Development entry points. `make check` is what CI runs on every PR:
# vet + the partlint analyzer suite + build + full test suite, plus the
# race detector over the shared-memory sweep-orchestration layer and its
# heaviest user.

GO ?= go

# CORE_HASH fingerprints the internal/core sources. The bench-recording
# targets stamp it into their BENCH_*.json records; bench-compare warns
# when the committed record's hash no longer matches the tree, i.e. the
# baseline predates a core change and should be re-recorded.
CORE_HASH := $(shell cat internal/core/*.go | sha256sum | cut -c1-16)

.PHONY: check vet lint lint-json lint-tags staticcheck build test race conformance bench bench-hotpath bench-parallel bench-compare bench-pdes bench-pdes-smoke bench-adaptive bench-adaptive-smoke bench-topo bench-topo-smoke

check: vet lint build test race conformance

vet:
	$(GO) vet ./...

# partlint is the repository's own analyzer suite (DESIGN.md §10, §14):
# interprocedural hot-path allocation gates, sim determinism, the
# determinism-taint dataflow analyzer, the shard-protocol safety checks
# (//partib:atomic, //partib:guard, CAS claim gates), the transport SPI
# import gate (real import graph, aliased and transitive imports
# included), the typed-error no-panic contract, the completion-callback
# blocking check, and waiver hygiene (stale //partlint:allow comments
# fail the build). It runs through the go vet driver so results are
# cached per package.
lint:
	$(GO) build -o bin/partlint ./cmd/partlint
	$(GO) vet -vettool=$(CURDIR)/bin/partlint ./...

# Machine-readable diagnostics: one JSON object per line, waived findings
# included (flagged "waived":true) so dashboards can track the waiver
# population. Exit status still reflects only non-waived findings.
lint-json:
	$(GO) build -o bin/partlint ./cmd/partlint
	PARTLINT_JSON=1 $(GO) vet -vettool=$(CURDIR)/bin/partlint ./...

# Build-tag matrix guard: the suite must be clean under every
# shard-relevant tag combination. The repository currently builds the
# same files under all of these, but the loop keeps tag-gated files
# (e.g. a future purego/cgo verbs split) from escaping analysis.
lint-tags:
	$(GO) build -o bin/partlint ./cmd/partlint
	for tags in "" "race"; do \
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
# those sweeps, and the bench differential tests that drive sharded
# clusters end to end. The fabric line covers the multi-switch congestion
# paths (incast on the shared down-link, link saturation, route spread).
# The sim and sharded lines run at -cpu 1,2: procs are coroutines that any
# shard worker may resume, so switches are exercised on one P and across
# two.
race:
	$(GO) test -race -cpu 1,2 ./internal/sim/...
	$(GO) test -race ./internal/sweep/... ./internal/tuning/... ./internal/core/... ./internal/mpi/... ./internal/netgauge/...
	$(GO) test -race -cpu 1,2 -run 'TestSharded' ./internal/bench/
	$(GO) test -race -run 'Incast|SaturateLink|BandwidthNeverExceeds|Route|Congest' ./internal/fabric/

# Provider-conformance suite: every transport backend (verbs, ucx, shm)
# against the same SPI contract, including under the race detector.
conformance:
	$(GO) test ./internal/xport/...
	$(GO) test -race ./internal/xport/...

# Hot-path allocation gates and benchmarks: the AllocsPerRun regression
# tests assert the sim typed-event and fabric message paths stay at zero
# steady-state allocations, then the named engine benchmarks report
# per-op allocation counts, then the paper-exhibit benchmarks run in
# quick mode.
bench:
	$(GO) test -run SteadyStateZeroAllocs -v ./internal/sim/ ./internal/fabric/
	$(GO) test -bench 'BenchmarkEngineEventChurn|BenchmarkProcParkResume|BenchmarkScheduleFire|BenchmarkTimerStopStart' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench . -benchmem -run xxx ./internal/fabric/ ./internal/profiler/
	$(GO) test -bench . -benchmem -run xxx .

# Regenerate BENCH_hotpath.json: fixed single-engine hot-path workload.
bench-hotpath:
	$(GO) run ./cmd/partbench -hotpathjson BENCH_hotpath.json -corehash $(CORE_HASH)

# Run the hotpath benchmark against a scratch copy of the committed
# BENCH_hotpath.json: partbench prints the events/sec and allocs/event
# delta versus the copied record before overwriting it, so the committed
# file itself is left untouched — and warns when the record's core hash
# no longer matches the tree. Use bench-hotpath to actually re-record.
bench-compare:
	@tmp=$$(mktemp); cp BENCH_hotpath.json $$tmp; \
	$(GO) run ./cmd/partbench -hotpathjson $$tmp -corehash $(CORE_HASH); \
	rm -f $$tmp

# Regenerate BENCH_pdes.json: the conservative-PDES scaling workload
# (1024-rank Sweep3D) on the serial engine and at 2, 4, and 8 shards,
# every sharded pass asserted byte-identical to the serial oracle.
bench-pdes:
	$(GO) run ./cmd/partbench -pdesjson BENCH_pdes.json

# CI smoke variant: small workload, two shards, same parity assert;
# exits nonzero if the sharded pass diverges from serial or if skip-ahead
# regresses past the dispatch-window ceiling (the quick workload records
# 5 fleet windows; 40 leaves headroom without admitting a λ-march).
bench-pdes-smoke:
	$(GO) run ./cmd/partbench -pdesjson /dev/null -quick -windowceiling 40

# Regenerate BENCH_parallel.json: serial-vs-parallel tuning sweep report.
bench-parallel:
	$(GO) run ./cmd/tuningsearch -parts 4,16,32 -min 4096 -max 4194304 \
		-benchjson BENCH_parallel.json -corehash $(CORE_HASH) -o /dev/null

# Regenerate BENCH_adaptive.json: the adaptive-vs-static evaluation grid
# (every arrival pattern × message size under each design), with the
# never-worse guard enforced — the run fails if the adaptive strategy
# trails the best static design by more than the bound anywhere, or does
# not beat the worst static design on the skewed patterns.
bench-adaptive:
	$(GO) run ./cmd/partbench -adaptivejson BENCH_adaptive.json \
		-adaptiveguard -corehash $(CORE_HASH)

# CI smoke variant: single size, fewer iterations, same guard; exits
# nonzero on any guard violation so a regression in the adaptive
# switcher is caught on every PR.
bench-adaptive-smoke:
	$(GO) run ./cmd/partbench -adaptivejson /dev/null -quick -adaptiveguard

# Regenerate BENCH_topo.json: the multi-switch topology acceptance
# workload — an explicit single-link run asserted byte-identical to the
# default fabric (serial and sharded), then incast:16 and permutation
# patterns on a 2-level fat-tree, each asserted deterministic across
# shard/worker counts and required to show a >=2x completion-time spread
# (congested vs uncongested).
bench-topo:
	$(GO) run ./cmd/partbench -topojson BENCH_topo.json -corehash $(CORE_HASH)

# CI smoke variant: smaller per-flow payload, same three gates; exits
# nonzero if single-link parity breaks, congestion reports diverge
# across shard layouts, or the incast stops contending.
bench-topo-smoke:
	$(GO) run ./cmd/partbench -topojson /dev/null -quick
