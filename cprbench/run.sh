#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash cprbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to _build/ only (the
# shared dune cache is disabled), and a failed build exits non-zero
# without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./cprbench/cpr_bench.exe 1>&2
exec ./_build/default/cprbench/cpr_bench.exe "$@"
