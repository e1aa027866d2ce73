#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Start it from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload torus-saturated --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced runs' spans and profiles
# all stay under .bench_build/ in that directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
