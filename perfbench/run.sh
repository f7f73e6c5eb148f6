#!/usr/bin/env bash
# Builds the live-stack benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig9-paced --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary and everything the Go
# toolchain writes go under $CARGO_TARGET_DIR (default .bench_build),
# inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
