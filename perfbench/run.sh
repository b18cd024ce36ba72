#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload batch-retailer --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in that root (Go's build cache included).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2
exec "$build/perfbench.bin" "$@"
