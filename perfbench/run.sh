#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload kv-read-spill --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
