#!/usr/bin/env bash
# Build the benchmark runner from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  Build output goes to stderr, so the
# runner's JSON result stays the last line of stdout.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/run.exe 1>&2
exec ./_build/default/perfbench/run.exe "$@"
