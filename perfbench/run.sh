#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload cold_best --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache included, stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
