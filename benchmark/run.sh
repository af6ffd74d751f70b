#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# checkout's root. Everything the build writes — compiled packages, module
# cache, Go's own settings and counters — stays under .bench_build there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
go -C "$here" build -buildvcs=false -o "$build/benchmark" .
cd "$root"
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
export BENCH_COMMIT
exec "$build/benchmark" "$@"
