#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload kplace-2k --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and span files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target=$root/$target ;;
esac
out=$target/perfbench
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
