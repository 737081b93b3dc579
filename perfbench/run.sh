#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache go to $CARGO_TARGET_DIR, or
# .bench_build when that is unset, so nothing is written outside the
# checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
