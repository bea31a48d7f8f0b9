#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, e.g.:
#
#   bash repobench/run.sh --workload stress-contended --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache and the binary stay under
# .bench_build in the current directory, so nothing outside the checkout
# is written, and no module download is ever attempted.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/repobench" build -o "$out/repobench" .
exec "$out/repobench" "$@"
