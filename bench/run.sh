#!/usr/bin/env bash
# The command BENCHMARK.json names: build ./bench from source and run it,
# keeping everything the Go toolchain writes (build cache, temporary
# files, the binary) under .bench_build in the checkout. By hand,
# `go run ./bench` does the same with the toolchain's usual cache.
# Run from the repository root: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
