#!/usr/bin/env bash
# The CI pipeline, runnable as one local command. Everything is offline:
# external dependencies resolve to the vendored shims under vendor/, so no
# network access is required at any step.
#
# Stages (all blocking unless noted):
#   1. release build of the whole workspace
#   2. full test suite, then the rayon shim's tests once more under
#      --release: its work-sharing path is a race between a forker and the
#      helper it woke, and the optimised build runs that race at different
#      speeds; and the serde_json shim's, whose float printer and reader are
#      integer lane and word arithmetic that debug builds overflow-check and
#      release builds wrap, with the wire-byte pins (tests/wire_bytes.rs)
#      beside them: the same text and bits in both builds; and the tensor
#      crate's, whose GEMM kernel is register-resident only when optimised,
#      so its oracle comparisons must run against that build. Every kernel has
#      one production path, and the suite compares it against its scalar
#      oracle (DESIGN.md §7). Then the trained and served bit pins
#      (tests/trained_bits.rs, tests/served_bits.rs) once more under
#      --release, where the tape's in-place linears and the tile transposes
#      run as they do in production.
#   3. clippy lint gate (scripts/lint.sh: -D warnings -D unsafe_code)
#   4. chaos suite (scripts/chaos_smoke.sh: fault injection + recovery)
#   5. reduced-precision quality gate (crates/core/tests/precision_gate.rs):
#      int8 weight sessions must reproduce the f32 Table IV metrics
#      within tolerance. Runs in release.
#   6. end-to-end benchmark harness (benchmark/, a package of its own that
#      the workspace build never compiles): its unit tests, then
#      `benchmark/run.sh --smoke` (~45 s). Any drift in `Exec`,
#      `ServerConfig` or `ServerStats` that stops the harness building, or
#      any served reply that stops being bit-equal to `downscale_with`,
#      fails here instead of in the benchmark pipeline. This harness,
#      compared in alternating parent/change pairs (benchmark/compare.sh),
#      is the perf gate. The BENCH_*.json files scripts/bench_smoke.sh
#      appends to are a recorded trajectory only — absolute medians from
#      snapshots taken weeks apart, possibly on different guests — and no
#      stage compares them.
#
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Every stage reports its wall time when the next one starts.
stage_name=""
stage_start=$SECONDS
close_stage() {
    [[ -z "$stage_name" ]] || echo "=== ci: $stage_name: $((SECONDS - stage_start)) s ==="
}
step() {
    close_stage
    stage_name="$*"
    stage_start=$SECONDS
    echo
    echo "=== ci: $* ==="
}

step "release build"
cargo build --release

step "tests"
cargo test -q --workspace
cargo test -q --release -p rayon -p serde_json
# The GEMM kernel keeps its tile in registers only in the optimised build.
cargo test -q --release -p orbit2-tensor
# Its own line: `--test` on the line above would run that target alone.
cargo test -q --release -p orbit2-repro --test wire_bytes
# The tape's in-place linears and the tile transposes are optimised-build code.
cargo test -q --release -p orbit2-repro --test trained_bits --test served_bits

step "lint"
scripts/lint.sh

step "chaos suite"
scripts/chaos_smoke.sh

step "reduced-precision quality gate (int8 weights vs f32 metrics)"
cargo test --release -q -p orbit2 --test precision_gate

step "benchmark harness: unit tests + smoke run"
cargo test -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

close_stage
echo
echo "ci: all stages passed"
