#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the
# benchmark with the given arguments (see perfbench/README.md).
# Run from the repository root:
#   bash perfbench/run.sh --workload hot-stream --seed 1 --seconds 20 --trace 0
set -euo pipefail
# Build inside this checkout only: no shared dune cache, and the
# compiler's temporary files under .perfbench/.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.perfbench/tmp"
mkdir -p "$TMPDIR"
dune build --root . bin/wp_cli.exe perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
