#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments
# given, from the root of a checkout:
#
#	bench/run.sh --workload fleet-wire --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (the Go build cache included) and bench/out/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/bench" ./bench
exec "$build/bench" "$@"
