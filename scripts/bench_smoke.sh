#!/usr/bin/env bash
# Smoke benchmark: run the substrate kernel criterion bench twice — with
# the thread-local buffer pool enabled (default) and disabled
# (ORBIT2_DISABLE_POOL=1) — and append a summary record to
# BENCH_kernels.json so pooled-vs-unpooled deltas are tracked over time.
# Then run the inference bench (tape vs tape-free forward, whole-sample,
# 2x2 tiled, and reduced-precision sessions) into BENCH_inference.json,
# and the serving bench (open-loop load at three concurrency levels, plus
# f32/bf16/int8 default-precision cells at c=16 and the `wire/*` float-text
# cells) into BENCH_serving.json.
#
# Snapshots are labelled with the tree that was benchmarked (`git describe
# --always --dirty`: the commit, plus `-dirty` when uncommitted changes were
# measured) and deduped by that label: re-running on the same tree replaces
# its record instead of appending a duplicate, so each BENCH file holds at
# most one snapshot per revision. The files are a recorded trajectory, not a
# gate: nothing compares snapshots across sessions (benchmark/compare.sh's
# alternating parent/change pairs are the perf gate).
#
# Usage: scripts/bench_smoke.sh [extra cargo-bench args]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT_JSON="$REPO_ROOT/BENCH_kernels.json"
INFER_JSON="$REPO_ROOT/BENCH_inference.json"
SERVE_JSON="$REPO_ROOT/BENCH_serving.json"
BENCHES=(kernels)
REV="$(git -C "$REPO_ROOT" describe --always --dirty 2>/dev/null || echo unknown)"

run_benches() {
    # Prints one BENCH_JSON payload per benchmark to stdout.
    local log
    for bench in "${BENCHES[@]}"; do
        log="$(cargo bench -p orbit2-bench --bench "$bench" "$@" 2>&1)" || {
            echo "bench $bench failed:" >&2
            echo "$log" >&2
            exit 1
        }
        echo "$log" | sed -n 's/^BENCH_JSON //p'
    done
}

collect() {
    # $1 = pool mode label; remaining BENCH_JSON lines on stdin.
    jq -s --arg pool "$1" '{pool: $pool, results: .}'
}

append_record() {
    # $1 = target json file, $2 = record. Replaces any existing record for
    # the same revision (re-entrancy: one snapshot per rev per file).
    local file="$1" record="$2"
    if [[ -s "$file" ]]; then
        jq --argjson rec "$record" --arg rev "$REV" \
            'map(select(.rev != $rev)) + [$rec]' "$file" > "$file.tmp"
        mv "$file.tmp" "$file"
    else
        jq -n --argjson rec "$record" '[$rec]' > "$file"
    fi
}

cd "$REPO_ROOT"

echo "== bench smoke: pool enabled =="
pooled="$(run_benches "$@" | collect enabled)"

echo "== bench smoke: pool disabled (ORBIT2_DISABLE_POOL=1) =="
unpooled="$(ORBIT2_DISABLE_POOL=1 run_benches "$@" | collect disabled)"

record="$(jq -n \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rev "$REV" \
    --argjson pooled "$pooled" \
    --argjson unpooled "$unpooled" \
    '{date: $date, rev: $rev, runs: [$pooled, $unpooled]}')"
append_record "$OUT_JSON" "$record"

echo "appended bench record to $OUT_JSON"
jq -r '.[-1].runs[] | .pool as $p | .results[] | "\($p)\t\(.bench)\t\(.median_ns) ns"' "$OUT_JSON"

# Fused-vs-unfused epilogue delta: how much the GEMM+bias+GELU fusion saves
# over the three-pass composition, from the pool-enabled run just recorded.
jq -r '
    .[-1].runs[0].results
    | (map(select(.bench | startswith("fused_linear_gelu/"))) | map({(.bench | split("/")[1]): .median_ns}) | add // {}) as $f
    | (map(select(.bench | startswith("unfused_linear_gelu/"))) | map({(.bench | split("/")[1]): .median_ns}) | add // {}) as $u
    | $f | keys[] | . as $n
    | "fused_vs_unfused_linear_gelu/\($n)\tfused \($f[$n]) ns\tunfused \($u[$n]) ns\tspeedup \(($u[$n] / $f[$n] * 100 | round) / 100)x"
' "$OUT_JSON"

# GEMM ratios from this one snapshot (pool-enabled run), so they mean the
# same on any box: the vector kernel against the scalar oracle on the same
# operands, and the bf16/int8 strips against f32 strips per shape — the
# speedup the serving `--precision` flag buys per GEMM call.
jq -r '
    .[-1].runs[0].results
    | (map({(.bench): .median_ns}) | add) as $r
    | "gemm_f32/256 vs gemm_ref/256\tkernel \($r["gemm_f32/256"]) ns\toracle \($r["gemm_ref/256"]) ns\tspeedup \(($r["gemm_ref/256"] / $r["gemm_f32/256"] * 100 | round) / 100)x",
      ( $r | keys[] | select(startswith("gemm_bf16/")) | split("/")[1] ) as $n
    | ($r["gemm_f32/" + $n]) as $f
    | "gemm_precision/\($n)\tf32 \($f) ns\tbf16 \($r["gemm_bf16/" + $n]) ns (\(($f / $r["gemm_bf16/" + $n] * 100 | round) / 100)x)\tint8 \($r["gemm_int8/" + $n]) ns (\(($f / $r["gemm_int8/" + $n] * 100 | round) / 100)x)"
' "$OUT_JSON"

# The broadcasting walk, same snapshot: a row-broadcast pass against the
# same-shape pass of the same size (about 1x or below while broadcasts stay
# on the run-based walk; per-element index arithmetic reads 20-40x), and
# the session's layer norm with its two-pass affine against the bare kernel.
jq -r '
    .[-1].runs[0].results
    | (map({(.bench): .median_ns}) | add) as $r
    | "elementwise/row vs same/1156x256\trow \($r["elementwise/row/1156x256"]) ns\tsame \($r["elementwise/same/1156x256"]) ns\trow / same \(($r["elementwise/row/1156x256"] / $r["elementwise/same/1156x256"] * 100 | round) / 100)x",
      "layer_norm_affine vs layer_norm/1156x256\taffine \($r["layer_norm_affine/1156x256"]) ns\tkernel \($r["layer_norm/1156x256"]) ns\taffine / kernel \(($r["layer_norm_affine/1156x256"] / $r["layer_norm/1156x256"] * 100 | round) / 100)x"
' "$OUT_JSON"

# The transcendentals, same snapshot: softmax against layer norm (both
# three-pass row kernels over the same bytes; at most 2x while the exp pass
# is `simd::exp`, 3.5x on libm) and the GELU epilogue against the product it
# is fused into (at most 1.3x; 2.7x with a libm tanh per element).
jq -r '
    .[-1].runs[0].results
    | (map({(.bench): .median_ns}) | add) as $r
    | "softmax vs layer_norm/1024x256\tsoftmax \($r["softmax/1024x256"]) ns\tlayer_norm \($r["layer_norm/1024x256"]) ns\tsoftmax / layer_norm \(($r["softmax/1024x256"] / $r["layer_norm/1024x256"] * 100 | round) / 100)x",
      "fused_linear_gelu vs gemm_f32/512\tfused \($r["fused_linear_gelu/512"]) ns\tgemm \($r["gemm_f32/512"]) ns\tfused / gemm \(($r["fused_linear_gelu/512"] / $r["gemm_f32/512"] * 100 | round) / 100)x"
' "$OUT_JSON"

# Attention, same snapshot: the session's blocked op against the per-head
# composition the tape runs, on the same operands (two samples of N tokens,
# D wide, h heads). Below 1x everywhere; at 64x1024h16 the blocks are too
# small to fork, which the grain rule (`orbit2_tensor::par`) decides.
jq -r '
    .[-1].runs[0].results
    | (map({(.bench): .median_ns}) | add) as $r
    | $r | keys[] | select(startswith("attention/fused/")) | split("/")[2] as $n
    | "attention/fused vs composed/\($n)\tfused \($r["attention/fused/" + $n]) ns\tcomposed \($r["attention/composed/" + $n]) ns\tfused / composed \(($r["attention/fused/" + $n] / $r["attention/composed/" + $n] * 100 | round) / 100)x"
' "$OUT_JSON"

# The training step's non-math, same snapshot: the trainer's two sweeps
# (reduce into the accumulation arena + Adam over the moment arenas) against
# the sequential composition they replaced, on the same gradients.
jq -r '
    .[-1].runs[0].results
    | (map({(.bench): .median_ns}) | add) as $r
    | "optim/fused/5M vs optim/composed/5M\tfused \($r["optim/fused/5M"]) ns\tcomposed \($r["optim/composed/5M"]) ns\tfused / composed \(($r["optim/fused/5M"] / $r["optim/composed/5M"] * 100 | round) / 100)x"
' "$OUT_JSON"

# Checkpoints, same snapshot: a model checkpoint is the first two of the
# full state's seven sections, over the same 5M-parameter store: a third of
# the bytes. The save reads about 0.8x, not 0.33x (both pay the same two
# syncs), and the load about 2x: `load_model` validates the layout against
# a freshly built reference model, which `load_trainer_state` leaves to
# `Trainer::resume`.
jq -r '
    .[-1].runs[0].results
    | (map({(.bench): .median_ns}) | add) as $r
    | "ckpt/save_model vs ckpt/save/5M\tmodel \($r["ckpt/save_model/5M"]) ns\tfull state \($r["ckpt/save/5M"]) ns\tmodel / full \(($r["ckpt/save_model/5M"] / $r["ckpt/save/5M"] * 100 | round) / 100)x",
      "ckpt/load_model vs ckpt/load/5M\tmodel \($r["ckpt/load_model/5M"]) ns\tfull state \($r["ckpt/load/5M"]) ns\tmodel / full \(($r["ckpt/load_model/5M"] / $r["ckpt/load/5M"] * 100 | round) / 100)x"
' "$OUT_JSON"

echo "== bench smoke: tape vs tape-free inference =="
infer_log="$(cargo bench -p orbit2-bench --bench inference "$@" 2>&1)" || {
    echo "bench inference failed:" >&2
    echo "$infer_log" >&2
    exit 1
}
infer_results="$(echo "$infer_log" | sed -n 's/^BENCH_JSON //p' | jq -s '.')"

infer_record="$(jq -n \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rev "$REV" \
    --argjson results "$infer_results" \
    '{date: $date, rev: $rev, results: $results}')"
append_record "$INFER_JSON" "$infer_record"

echo "appended inference record to $INFER_JSON"
# Tape vs session medians per (path, model size): the forward-latency win
# of skipping autograd bookkeeping and reusing session-resident GEMM packs.
jq -r '
    .[-1].results
    | (map(select(.bench | test("/tape/"))) | map({(.bench | split("/") | "\(.[0])/\(.[2])"): .median_ns}) | add // {}) as $t
    | (map(select(.bench | test("/session/"))) | map({(.bench | split("/") | "\(.[0])/\(.[2])"): .median_ns}) | add // {}) as $s
    | $t | keys[] | . as $n
    | "\($n)\ttape \($t[$n]) ns\tsession \($s[$n]) ns\tspeedup \(($t[$n] / $s[$n] * 100 | round) / 100)x"
' "$INFER_JSON"

echo "== bench smoke: serving (open-loop load) =="
serve_log="$(cargo bench -p orbit2-bench --bench serving "$@" 2>&1)" || {
    echo "bench serving failed:" >&2
    echo "$serve_log" >&2
    exit 1
}
serve_results="$(echo "$serve_log" | sed -n 's/^BENCH_JSON //p' | jq -s '.')"

serve_record="$(jq -n \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rev "$REV" \
    --argjson results "$serve_results" \
    '{date: $date, rev: $rev, results: $results}')"
append_record "$SERVE_JSON" "$serve_record"

echo "appended serving record to $SERVE_JSON"
# Throughput and latency per concurrency level (tiny model).
jq -r '.[-1].results[] | select(.bench | test("^serving/c[0-9]+$")) | "\(.bench)\t\(.rps) req/s\tp50 \(.p50_us) us\tp99 \(.p99_us) us"' "$SERVE_JSON"

# Per-precision serving throughput at c=16 (126M model): the
# f32 server vs the reduced-precision default servers under the same load.
jq -r '
    .[-1].results
    | (map(select(.bench == "serving/f32/c16")) | first) as $f
    | map(select(.bench == "serving/bf16/c16" or .bench == "serving/int8/c16"))[]
    | "\(.bench)\t\(.rps) req/s (p99 \(.p99_us) us)\tvs f32 \($f.rps) req/s\tspeedup \((.rps / $f.rps * 100 | round) / 100)x"
' "$SERVE_JSON"

# The wire's float text (DESIGN.md §10), same snapshot: each JSON crossing
# of a `serve-wire` round trip on its own. Through a `Value` tree, as every
# crossing went before PR 24, they took 2-4x as long (CHANGES.md).
jq -r '.[-1].results[] | select(.bench | startswith("wire/")) | "\(.bench)\t\(.median_ns) ns"' "$SERVE_JSON"
