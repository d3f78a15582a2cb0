#!/usr/bin/env bash
# Builds the query benchmark from source and runs one measurement:
#
#   bash qbench/run.sh --workload anneal|static|session --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Build output goes to stderr;
# the last line of stdout is the result as one JSON object. The build
# stays inside the tree: dune's shared cache is off.
set -euo pipefail
dune build --root . --cache=disabled ./qbench/bench.exe >&2
exec ./_build/default/qbench/bench.exe "$@"
