#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash servebench/run.sh --workload relu-k1 --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build in the checkout,
# the Go build cache included.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/servebench" ./servebench
exec "$build/servebench" "$@"
