#!/usr/bin/env bash
# The CI pipeline, runnable as one local command. Everything is offline:
# external dependencies resolve to the vendored shims under vendor/, so no
# network access is required at any step.
#
# Stages (all blocking unless noted):
#   1. release build of the whole workspace
#   2. full test suite with the SIMD kernels enabled (default)
#   3. full test suite again with ORBIT2_DISABLE_SIMD=1 (scalar fallbacks;
#      every matrix product runs the GEMM driver's scalar oracle)
#   4. clippy lint gate (scripts/lint.sh: -D warnings -D unsafe_code)
#   5. chaos suite (scripts/chaos_smoke.sh: fault injection + recovery,
#      both SIMD modes)
#   6. reduced-precision quality gate (crates/core/tests/precision_gate.rs):
#      bf16/int8 weight sessions must reproduce the f32 Table IV metrics
#      within tolerance. Runs in release, in BOTH SIMD modes: the GEMM
#      kernel and its scalar oracle are bit-identical by construction at
#      every weight precision, f32 included, so the gate must hold
#      identically under ORBIT2_DISABLE_SIMD=1 — a divergence there means a
#      kernel/oracle mismatch (or one of the non-GEMM SIMD kernels), not a
#      tolerance problem.
#   7. end-to-end benchmark harness (benchmark/, a package of its own that
#      the workspace build never compiles): its unit tests, then
#      `benchmark/run.sh --smoke` (~45 s). Any drift in `Exec`,
#      `ServerConfig` or `ServerStats` that stops the harness building, or
#      any served reply that stops being bit-equal to `downscale_with`,
#      fails here instead of in the benchmark pipeline.
#   8. bench regression check (scripts/bench_check.sh), ADVISORY for all
#      three BENCH_*.json files: a regression prints a prominent warning
#      and the pipeline still passes. The files compare absolute medians
#      between snapshots taken weeks apart, possibly on different guests
#      (BENCH_kernels.json read 1.5-2.5x slower at d0ddaa4 on cells nobody
#      touched), so they are a recorded trajectory, not a gate; stage 7's
#      `benchmark/` harness, compared in alternating parent/change pairs,
#      is the perf gate that can resolve a regression. Kernel rows warn at
#      50% (above the +-30-35% run-to-run noise of the sub-ms rows on this
#      2-vCPU guest); override any file with
#      ORBIT2_BENCH_TOLERANCE_PCT_<NAME>=<pct>.
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

step "tests (SIMD enabled)"
cargo test -q --workspace

step "tests (SIMD disabled: ORBIT2_DISABLE_SIMD=1)"
ORBIT2_DISABLE_SIMD=1 cargo test -q --workspace

step "lint"
scripts/lint.sh

step "chaos suite"
scripts/chaos_smoke.sh

step "reduced-precision quality gate (bf16/int8 weights vs f32 metrics)"
cargo test --release -q -p orbit2 --test precision_gate

step "reduced-precision quality gate (SIMD disabled: ORBIT2_DISABLE_SIMD=1)"
ORBIT2_DISABLE_SIMD=1 cargo test --release -q -p orbit2 --test precision_gate

step "benchmark harness: unit tests + smoke run"
cargo test -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

step "bench regression check: kernels + inference + serving (advisory)"
export ORBIT2_BENCH_TOLERANCE_PCT_KERNELS="${ORBIT2_BENCH_TOLERANCE_PCT_KERNELS:-50}"
advisory=()
for f in BENCH_kernels.json BENCH_inference.json BENCH_serving.json; do
    [[ -e "$f" ]] && advisory+=("$f")
done
if (( ${#advisory[@]} > 0 )) && ! scripts/bench_check.sh "${advisory[@]}"; then
    echo
    echo "ci: WARNING: bench medians regressed beyond tolerance (see above)." >&2
    echo "ci: these files are advisory — absolute medians across sessions are noisy on shared hardware;" >&2
    echo "ci: benchmark/compare.sh (alternating parent/change pairs) is the gate that resolves a regression." >&2
fi

close_stage
echo
echo "ci: all stages passed"
