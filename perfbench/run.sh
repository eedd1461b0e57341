#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments; run it from the repository root:
#
#	bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Build output and the Go build cache live in $CARGO_TARGET_DIR (default
# .bench_build) under the repository root, so nothing is written elsewhere.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
