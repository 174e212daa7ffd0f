#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Build outputs and the Go build cache stay in .bench_build/ at the root of
# the checkout, so nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
