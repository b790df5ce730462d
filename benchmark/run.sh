#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload p2p-overhead --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the go command's own state all stay in
# .bench_build/ at the root, and the toolchain is never asked to download
# anything. Without the repository's sources next to benchmark/ the build
# fails and the script exits non-zero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
