#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# All arguments are passed on to the benchmark program, e.g.
#   bash perfbench/run.sh --workload solve-stream --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# keep the build inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
PERFBENCH_T0=$(date +%s.%N) exec ./_build/default/perfbench/main.exe "$@"
