#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload halo --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, span files and determinism
# fingerprints all go to $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark reads and writes nothing outside the checkout but the Go
# toolchain itself.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
