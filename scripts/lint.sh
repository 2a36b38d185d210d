#!/usr/bin/env bash
# Lint gate: the workspace must be clippy-clean with warnings denied.
# `clippy::redundant_clone` is enabled on top of the default set because the
# COW tensor refactor makes `.clone()` cheap — a redundant one is now pure
# noise and usually marks a spot where a COW handle was misunderstood.
# `unsafe_code` is denied workspace-wide: the SIMD kernel layer is built on
# safe lane-array structs (orbit2-tensor is `#![forbid(unsafe_code)]`), and
# no other crate has a reason to reach for `unsafe` either.
#
# libm gate: `simd::exp` is the only exponential on a forward or backward
# path (DESIGN.md §7), so outside test modules nothing under the tensor and
# autograd crates may call libm's `exp`, `tanh` or `exp_m1` (`mod tests`,
# which holds the libm comparison `simd::exp` is measured by, closes each file).
#
# JSON checkpoint gate: `ORBIT2CKPT v2` is the only on-disk tensor format, so
# outside test modules nothing under the autograd crate or in
# `crates/core/src/checkpoint.rs` may name `params.json`, define a
# `struct Snapshot`, or `serde_json::to_string` a parameter store or tensor.
#
# Float-sum gate: a worker's parallel call is cut into as many pieces as
# there are idle workers at that instant, so a float sum over per-piece
# partials rounds differently from run to run. The rayon shim implements
# `sum` for integers only; this keeps a float one from being written against
# a future shim (sum fixed-length blocks in index order, like `Tensor::sum`).
#
# Wire-text gate (DESIGN.md §10): a tensor crosses the wire as text without a
# per-number allocation and without a `Value` tree. So the serde_json shim's
# printers (`float.rs`, and `lib.rs` between its `-- printer` and `-- reader`
# rules) may not `format!` or `to_string()` anything, and outside its test
# module `crates/serve/src/tcp.rs` may parse a `::<Value>` only in
# `handle_line`, after the line that submits an accepted request — a tree
# is built for a line that was not one, never for one that was.
#
# Attention gate (crates/model/src/exec.rs header): the per-head attention
# composition lives in one place, `Exec::attention`'s default body in
# `exec.rs`, so outside test modules no other file under `crates/model/src`
# mentions `matmul_nt` — except inside the session's own `fn matmul_nt`,
# the trait method `infer.rs` must implement. This keeps the composition
# from coming back beside the op.
#
# One-inference-call gate (DESIGN.md §10): the server runs each request
# through `orbit2::inference::downscale_with` and nothing else, so nothing
# under `crates/serve/src` names `.forward(`, `forward_batch`, `split_stack`
# or `stitch_predictions`. And the model forward takes one sample (DESIGN.md
# §9): `forward_batch` and `CompressionPlan::stack` (its `fn stack`) may not
# come back anywhere under `crates/`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
float_sum="$(grep -rnE '(into_)?par_(iter|iter_mut|chunks|chunks_mut)\(.*sum::<f(32|64)>' crates/*/src || true)"
if [[ -n "$float_sum" ]]; then
    echo "lint: a parallel float sum depends on the piece count (sum fixed blocks in index order, see Tensor::sum):" >&2
    echo "$float_sum" >&2
    exit 1
fi
libm="$(for f in crates/tensor/src/*.rs crates/autograd/src/*.rs; do
    awk -v f="$f" '/^mod tests \{/ { exit } /\.exp\(\)|\.tanh\(\)|exp_m1/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$libm" ]]; then
    echo "lint: libm transcendental outside a test module (use orbit2_tensor::simd::exp):" >&2
    echo "$libm" >&2
    exit 1
fi
# One on-disk tensor format (DESIGN.md §8): the JSON float-text model
# checkpoint must not come back beside the v2 container.
json_ckpt="$(for f in crates/autograd/src/*.rs crates/core/src/checkpoint.rs; do
    awk -v f="$f" '/^mod tests \{/ { exit }
        /params\.json|struct Snapshot|serde_json::to_string[_a-z]*\([^)]*([Pp]aram|[Ss]tore|[Tt]ensor)/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$json_ckpt" ]]; then
    echo "lint: a JSON tensor checkpoint outside a test module (write a v2 tensor section, crates/core/src/checkpoint.rs):" >&2
    echo "$json_ckpt" >&2
    exit 1
fi
printer_alloc="$(
    awk '/^mod tests \{/ { exit } /format!\(|\.to_string\(\)/ { print FILENAME ":" FNR ": " $0 }' vendor/serde_json/src/float.rs
    awk '/^\/\/ -- printer/ { on = 1 } /^\/\/ -- reader/ { on = 0 }
        on && /format!\(|\.to_string\(\)/ { print FILENAME ":" FNR ": " $0 }' vendor/serde_json/src/lib.rs
)"
if [[ -n "$printer_alloc" ]]; then
    echo "lint: a JSON printer allocates per value (write digits into the output buffer, vendor/serde_json/src/float.rs):" >&2
    echo "$printer_alloc" >&2
    exit 1
fi
wire_tree="$(awk '/^mod tests \{/ { exit }
    /^fn handle_line\(/ { inside = 1; submitted = 0 } /^}/ { inside = 0 }
    inside && /server\.submit\(/ { submitted = 1 }
    /::<Value>/ && !(inside && submitted) { print FILENAME ":" FNR ": " $0 }' crates/serve/src/tcp.rs)"
if [[ -n "$wire_tree" ]]; then
    echo "lint: the wire front end builds a \`Value\` tree on an accepted line (read it straight into its type, DESIGN.md §10):" >&2
    echo "$wire_tree" >&2
    exit 1
fi
composed_attn="$(for f in crates/model/src/*.rs; do
    [[ "$f" == crates/model/src/exec.rs ]] && continue
    awk -v f="$f" '/^mod tests \{/ { exit }
        /^    fn matmul_nt\(/ { inside = 1 }
        /matmul_nt/ && !inside { print f ":" FNR ": " $0 }
        inside && /^    }/ { inside = 0 }' "$f"
done)"
if [[ -n "$composed_attn" ]]; then
    echo "lint: matmul_nt outside exec.rs under crates/model/src (attention is one op: Exec::attention):" >&2
    echo "$composed_attn" >&2
    exit 1
fi
serve_forward="$(grep -rnE '\.forward\(|forward_batch|split_stack|stitch_predictions' crates/serve/src || true)"
if [[ -n "$serve_forward" ]]; then
    echo "lint: the server's only inference call is orbit2::inference::downscale_with:" >&2
    echo "$serve_forward" >&2
    exit 1
fi
batch_forward="$(grep -rnE 'forward_batch|CompressionPlan::stack|fn stack\(' crates || true)"
if [[ -n "$batch_forward" ]]; then
    echo "lint: the row-stacked batch forward was removed (one sample per forward, DESIGN.md §9):" >&2
    echo "$batch_forward" >&2
    exit 1
fi
exec cargo clippy --workspace --all-targets -- -D warnings -D unsafe_code -W clippy::redundant_clone "$@"
