#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
#   bash benchmark/run.sh compare PARENT_DIR CHANGE_DIR
#
# The Go build cache and the binary live in .bench_build/ at the root, so
# a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/benchmark" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
