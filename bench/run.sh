#!/bin/bash
# The benchmark's command (BENCHMARK.json): builds and runs the bench module
# with the Go build cache and the linker's temporary directory inside the
# checkout, so a run reads and writes nothing outside it. Arguments go to the
# program unchanged.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
exec go run -C "$root/bench" repro/bench "$@"
