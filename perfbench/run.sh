#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload lab-repro --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, telemetry, temporaries)
# stays under the build directory inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
