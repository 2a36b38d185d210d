#!/usr/bin/env bash
# compare.sh A.json B.json: two results.json files, one row per
# (end-to-end metric, workload): both values, the ratio B/A, the bound from
# BENCHMARK.json, and within / outside / unresolved. Exit 1 if any row is
# outside its bound.
set -euo pipefail
abs() { case "$1" in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
[ $# -eq 2 ] || { echo "usage: $0 A.json B.json" >&2; exit 2; }
# run.sh changes to the repo root, so the paths must not be relative.
exec "$(dirname "$0")/run.sh" compare "$(abs "$1")" "$(abs "$2")" BENCHMARK.json
