# Development entry points. `make check` runs the gates CI runs on every
# PR: gofmt, vet, the partlint analyzer suite (plain and over the
# build-tag matrix), build, the full test suite, the race detector over
# the shared-memory layers, provider conformance, the zero-alloc gates,
# and the repository benchmark's smoke test. CI also runs staticcheck and
# govulncheck (not vendored), the examples, and every experiment over the
# shm provider.

GO ?= go

.PHONY: check fmt vet lint lint-json lint-tags staticcheck build test race conformance allocs bench bench-smoke

check: fmt vet lint lint-tags build test race conformance allocs bench-smoke

# Gofmt gate; CI's Gofmt step calls this target. Analyzer fixtures under
# testdata/ are excluded: their `// want` comments are matched by line,
# so reformatting them would move expectations.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# partlint is the repository's own analyzer suite (DESIGN.md §10, §14):
# interprocedural hot-path allocation gates, the determinism analyzer
# (lexical bans plus taint dataflow), the shard-protocol safety checks
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
# two. The ibv and ucx line covers the verbs data path: a non-inline WR's
# payload is read from the sender's memory when it lands, which on a
# sharded run happens on the destination's engine. CI runs this target.
race:
	$(GO) test -race -cpu 1,2 ./internal/sim/...
	$(GO) test -race ./internal/sweep/... ./internal/tuning/... ./internal/core/... ./internal/mpi/... ./internal/netgauge/...
	$(GO) test -race ./internal/ibv/... ./internal/ucx/...
	$(GO) test -race -cpu 1,2 -run 'TestSharded' ./internal/bench/
	$(GO) test -race -run 'Incast|SaturateLink|BandwidthNeverExceeds|Route|Congest' ./internal/fabric/

# Provider-conformance suite: every transport backend (verbs, shm)
# against the same SPI contract, including under the race detector. CI
# runs this target.
conformance:
	$(GO) test ./internal/xport/...
	$(GO) test -race ./internal/xport/...

# Hot-path allocation gates: the AllocsPerRun regression tests assert the
# sim typed-event, fabric message, verbs data and control paths stay at
# zero steady-state allocations. CI runs this target.
allocs:
	$(GO) test -run SteadyStateZeroAllocs -v ./internal/sim/ ./internal/fabric/ ./internal/ibv/ ./internal/mpi/

# Benchmarks: the allocation gates, then the named engine benchmarks
# report per-op allocation counts, then the paper-exhibit benchmarks run
# in quick mode.
bench: allocs
	$(GO) test -bench 'BenchmarkEngineEventChurn|BenchmarkProcParkResume|BenchmarkProcSleepInPlace|BenchmarkScheduleFire|BenchmarkTimerStopStart' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench . -benchmem -run xxx ./internal/fabric/ ./internal/profiler/
	$(GO) test -bench . -benchmem -run xxx .

# Smoke test of the repository benchmark (benchmark/, its own module):
# every workload runs on a toy size and its virtual-time outcome must be
# byte-identical across repeats. The perf record itself is
# `bash benchmark/run.sh`; the correctness gates (PDES parity and the
# dispatch-window ceiling, the adaptive never-worse guard, single-link
# parity, the incast spread and its shard determinism) are tests under
# `go test ./...`.
bench-smoke:
	cd benchmark && $(GO) test ./...
