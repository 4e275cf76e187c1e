#!/usr/bin/env bash
# Builds perfbench from source into .bench_build and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload query-eval --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
