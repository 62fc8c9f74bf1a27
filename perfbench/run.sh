#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# The binary and the Go build cache go to .bench_build/ under the
# current directory, so nothing is written outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
