#!/usr/bin/env bash
# Builds the benchmark and runs it; run it from the repository root:
#
#   bash bench/run.sh --workload gsp-hot --seed 1 --seconds 16 --trace 0
#
# Every Go build and cache file lands in .bench_build/ under the root, so
# a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
  echo "bench/run.sh: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
