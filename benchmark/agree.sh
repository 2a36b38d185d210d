#!/usr/bin/env bash
# Run the full suite twice on the same code and the same seed, and compare
# the two sets against the benchmark's own bounds. Arguments are passed to
# both runs (e.g. --seed 7, --repeats 5, --smoke).
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh --out benchmark/out/agree-a "$@"
benchmark/run.sh --out benchmark/out/agree-b "$@"
benchmark/compare.sh benchmark/out/agree-a/results.json benchmark/out/agree-b/results.json
