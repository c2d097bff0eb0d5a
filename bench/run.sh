#!/usr/bin/env bash
# Builds the benchmark program inside the checkout and runs it with the
# arguments given. BENCHMARK.json's command is `bash bench/run.sh`; the
# driver appends --workload, --seed, --seconds and --trace.
#
# Everything the build and the run write stays under .bench_build/ (and
# bench/out/ for a traced run's spans): the Go build cache, the Go temp
# directory, the binary and the run's scratch directories.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

bin="$build/permcell-bench"
# The first run in a checkout builds; later runs find the build cache warm
# and the binary up to date.
go build -o "$bin" ./bench
exec "$bin" "$@"
