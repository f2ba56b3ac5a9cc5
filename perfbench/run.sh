#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload broadcast-sparse --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, the binary, spans and
# exact-count records all go under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$src" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
