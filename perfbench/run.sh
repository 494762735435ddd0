#!/usr/bin/env bash
# Builds the benchmark from source with dune, then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr, so the
# last stdout line is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
