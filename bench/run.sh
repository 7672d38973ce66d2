#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build leaves behind — the binary, Go's
# build cache, its temporary files, the go command's telemetry counters —
# stays under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it. The build
# needs the rest of the repository (bench/go.mod replaces rsskv with ../):
# in a directory that holds only bench/ it fails and nothing runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" # go writes <config>/go/telemetry
export GOPROXY=off
export GOTOOLCHAIN=local

go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
