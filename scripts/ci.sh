#!/usr/bin/env bash
# The CI pipeline, runnable as one local command. Everything is offline:
# external dependencies resolve to the vendored shims under vendor/, so no
# network access is required at any step.
#
# Stages (all blocking unless noted):
#   1. release build of the whole workspace
#   2. full test suite with the packed-SIMD kernels enabled (default)
#   3. full test suite again with ORBIT2_DISABLE_SIMD=1 (scalar fallbacks)
#   4. clippy lint gate (scripts/lint.sh: -D warnings -D unsafe_code)
#   5. chaos suite (scripts/chaos_smoke.sh: fault injection + recovery,
#      both SIMD modes)
#   6. reduced-precision quality gate (crates/core/tests/precision_gate.rs):
#      bf16/int8 weight sessions AND bf16-activation sessions must
#      reproduce the f32 Table IV metrics within tolerance. Runs in
#      release, in BOTH SIMD modes: the packed kernels and their scalar
#      oracles are bit-identical by construction, so the gate must hold
#      identically under ORBIT2_DISABLE_SIMD=1 — a divergence there means
#      a kernel/oracle mismatch, not a tolerance problem.
#   7. end-to-end benchmark harness (benchmark/, a package of its own that
#      the workspace build never compiles): its unit tests, then
#      `benchmark/run.sh --smoke` (~45 s). Any drift in `Exec`,
#      `ServerConfig` or `ServerStats` that stops the harness building, or
#      any served reply that stops being bit-equal to `downscale_with`,
#      fails here instead of in the benchmark pipeline.
#   8. bench regression check (scripts/bench_check.sh), split by file:
#      BENCH_kernels.json is STRICT — a >50% median regression fails the
#      pipeline. 50% sits above the measured noise floor of this 2-vCPU
#      guest's sub-millisecond rows (successive full runs under load swing a
#      random small bench by ±30-35%) while still catching real kernel
#      regressions, which historically land at 2x+ (e.g. an accumulator
#      spill). Set ORBIT2_BENCH_CHECK_STRICT=0 to demote to a warning,
#      ORBIT2_BENCH_TOLERANCE_PCT_KERNELS=<pct> to accept a deliberate
#      slowdown. The inference/serving files stay NON-BLOCKING: open-loop
#      load numbers on shared CI hardware are too noisy to gate on, so a
#      regression there prints a prominent warning instead.
#
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

step() {
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

step "reduced-precision quality gate (bf16/int8 weights + bf16 activations vs f32 metrics)"
cargo test --release -q -p orbit2 --test precision_gate

step "reduced-precision quality gate (SIMD disabled: ORBIT2_DISABLE_SIMD=1)"
ORBIT2_DISABLE_SIMD=1 cargo test --release -q -p orbit2 --test precision_gate

step "benchmark harness: unit tests + smoke run"
cargo test -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

step "bench regression check: kernels (STRICT unless ORBIT2_BENCH_CHECK_STRICT=0)"
# Default tolerance 50%: above the ±30-35% run-to-run noise of the sub-ms
# rows on this 2-vCPU guest, below the 2x+ of any real kernel regression.
export ORBIT2_BENCH_TOLERANCE_PCT_KERNELS="${ORBIT2_BENCH_TOLERANCE_PCT_KERNELS:-50}"
if [[ -e BENCH_kernels.json ]]; then
    if scripts/bench_check.sh BENCH_kernels.json; then
        :
    elif [[ "${ORBIT2_BENCH_CHECK_STRICT:-1}" == "1" ]]; then
        echo "ci: kernel bench regression check FAILED (strict)" >&2
        echo "ci: widen with ORBIT2_BENCH_TOLERANCE_PCT_KERNELS=<pct> for a deliberate slowdown." >&2
        exit 1
    else
        echo "ci: WARNING: kernel bench medians regressed beyond tolerance (see above)." >&2
    fi
else
    echo "ci: BENCH_kernels.json not present, skipping kernel bench gate"
fi

step "bench regression check: inference + serving (advisory)"
advisory=()
for f in BENCH_inference.json BENCH_serving.json; do
    [[ -e "$f" ]] && advisory+=("$f")
done
if (( ${#advisory[@]} > 0 )) && ! scripts/bench_check.sh "${advisory[@]}"; then
    echo
    echo "ci: WARNING: inference/serving bench medians regressed beyond tolerance (see above)." >&2
    echo "ci: these files are advisory — open-loop load numbers are noisy on shared hardware." >&2
    echo "ci: widen a single file with ORBIT2_BENCH_TOLERANCE_PCT_SERVING=<pct> etc." >&2
fi

echo
echo "ci: all stages passed"
