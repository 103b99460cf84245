#!/bin/bash
# Builds the benchmark runner from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload solo-hits --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# toolchain telemetry) stays under .bench_build/ in the current
# directory. The runner's module resolves
# the simulator through a relative replace of the repository root, so
# outside a full checkout the build fails and this script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
