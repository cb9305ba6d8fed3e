#!/bin/sh
# Build the benchmark and the serve daemon from source, then run one
# workload from the root of the checkout:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --profile release \
  ./perfbench/perfbench.exe ./bin/srfa_serve.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
