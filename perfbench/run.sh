#!/usr/bin/env bash
# Build and run the benchmark from the repository root:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# The build stays inside the checkout (_build, no shared dune cache); a
# tree without the library fails to build and exits non-zero.
set -euo pipefail
exec dune exec --root . --cache=disabled --display=quiet ./perfbench/main.exe -- "$@"
