#!/usr/bin/env bash
# Builds the benchmark and runs every workload, each run in its own process.
#
#   benchmark/run.sh                 5 repeats per workload; medians and spreads against the bounds
#   benchmark/run.sh --traced        also one traced run per workload: per-layer rows and budgets
#   benchmark/run.sh --smoke         2 s phases, one repeat, nothing gated: does everything still run?
#   benchmark/run.sh --out set.json  keep the set, for `benchmark compare old.json new.json`
#
# Any other flag of `benchmark all` passes through (--seed, --seconds, --repeats, --workload).
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release --quiet -- all "$@"
