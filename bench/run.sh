#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh [flags]
#
# The build cache, temporary files and the binary stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
