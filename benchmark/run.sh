#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it with the given
# arguments. Everything Go writes goes under <checkout>/.bench_build: the
# build cache, temporary files and the two binaries.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/ulixes-bench" .
exec "$build/ulixes-bench" "$@"
