#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs one workload.
# Run from the repository root; every argument is passed to the program:
#
#   bash perfbench/run.sh --workload adhoc_nl --seed 42 --seconds 12 --trace 0
#
# Build outputs and the Go caches go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
