#!/bin/bash
# Entry point named by BENCHMARK.json. It builds the bench from the working
# tree and runs it, keeping everything the build and the run write (Go build
# cache, temporary files, deployments, server logs) inside .bench_build at the
# root of the checkout. Arguments are passed through:
#
#   bash bench/run.sh --workload dash.recent --seed 1 --seconds 8 --trace 0
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" -workdir "$build/tmp" "$@"
