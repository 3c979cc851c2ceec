#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; everything the build and the runs
# write goes under .bench_build there:
#
#   bash bench/run.sh --workload plans-chained --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1            # every workload, as a table
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/bench" . >&2
exec "$out/bench" "$@"
