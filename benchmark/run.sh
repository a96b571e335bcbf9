#!/usr/bin/env bash
# The command of BENCHMARK.json: build the harness from this checkout's
# sources and run it from the repository root. Go's build cache, module
# cache, temp files and telemetry counters are all pointed into
# .bench_build, so a run reads and writes nothing outside the checkout;
# the first run in a fresh checkout compiles the standard library
# (about 20 s on two CPUs), later ones hit the cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
