#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (see README.md). Everything the build and the run leave
# behind goes under .bench_build/ and bench/out/, both git-ignored.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOPATH="$build/go-path" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -buildvcs=false -o "$build/gosmr-bench" .
exec "$build/gosmr-bench" "$@"
