#!/usr/bin/env bash
# Builds the benchmark from the repository it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload verify-2k-k1 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and result files stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
