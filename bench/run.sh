#!/usr/bin/env bash
# Entry point for benchmark drivers (the "command" of BENCHMARK.json): builds
# the benchmark from source into .bench_build at the root of the checkout,
# with the Go caches and every record log kept inside that directory too,
# then runs it with the arguments given. By hand, `go run .` from this
# directory does the same without the private caches.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
# XDG_CONFIG_HOME: the go command keeps its telemetry counters under it.
(cd "$root/bench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/avfi-bench" .) >&2
exec "$build/avfi-bench" -tmp "$build/tmp" "$@"
