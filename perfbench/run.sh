#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload serve-avmnist --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module state and tool configuration are kept under
# .bench_build in the checkout, so the benchmark reads and writes nothing
# outside it.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
