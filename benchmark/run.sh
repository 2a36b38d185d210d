#!/usr/bin/env bash
# Build the benchmark and run it. With `--trace 0|1` (as the driver of
# BENCHMARK.json calls it) this is one run of one workload and the last
# line of stdout is its result; without, it is the whole suite. See
# benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo's chatter goes to stderr; stdout carries only the benchmark's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/orbit2-benchmark" "$@"
