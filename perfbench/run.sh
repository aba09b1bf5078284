#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-lookup --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories all
# live under $CARGO_TARGET_DIR (default .bench_build), so the benchmark writes
# nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
