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
# JSON checkpoint gate: the `ORBIT2CKPT` container is the only on-disk tensor format, so
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
# Tail gate (the same header): a convolution tail is one op,
# `Exec::upsample_conv`, whose default body in `exec.rs` is the composition
# `resize_bilinear → conv2d`, and which both contexts override with one
# banded kernel (the tape's node runs it too). So outside test modules no
# file under `crates/model/src` but `exec.rs` (the trait and the tape's
# method) and `infer.rs` (the session's method) mentions `resize_bilinear`:
# a model file cannot call the resize beside the op and build the upsampled
# image again.
#
# Composite gate (the same header): a composite's default body is the
# composition, the tests' oracle and a timing wrapper's replay, and runs in
# no production context. So `impl Exec for Binder` (`exec.rs`) and
# `impl Exec for InferenceSession` (`infer.rs`) must each define
# `fn attention(` and `fn upsample_conv(`: deleting an override would
# otherwise compile, and quietly put the composition back on that path.
#
# One-inference-call gate (DESIGN.md §10): the server runs each request
# through `orbit2::inference::downscale_with` and nothing else, so nothing
# under `crates/serve/src` names `.forward(`, `forward_batch`, `split_stack`
# or `stitch_predictions`. And the model forward takes one sample (DESIGN.md
# §9): `forward_batch` and `CompressionPlan::stack` (its `fn stack`) may not
# come back anywhere under `crates/`.
#
# Env-knob gate (DESIGN.md §7): each kernel has one production path, and a
# process-wide environment variable that picks a second one is a program
# nobody ships. So outside test modules, an `env::var` / `var_os` call under
# `crates/*/src` may sit only in the three files that read today's knobs:
# `tensor/src/pool.rs` (ORBIT2_DISABLE_POOL), `core/src/fault.rs` (the
# fault plans) and `bench/src/lib.rs` (ORBIT2_STEPS). A new one changes
# this list, in review.
#
# Pack gate (DESIGN.md §9): resident packs are int8. An int8 session packs
# its weights at prepare, because the pack is its only int8 copy; an f32
# linear reads its weight by the tape's rule (`fused::IN_PLACE_MAX_ROWS`:
# in place, or a per-call pack) and keeps no second f32 copy. So outside
# test modules and `tensor/src/qgemm.rs`, which defines them, a
# `PackedWeight::pack` or `PackedWeight::from_layout` call under
# `crates/*/src` must name `Int8` on its line.
#
# Public-surface gate (ROADMAP item 10): rustc's `dead_code` lint never fires
# on a `pub` item of a library, so a `pub` item nothing outside its crate
# names is invisible surface. Narrow such an item to `pub(crate)` or private
# and `-D warnings` (dead_code) then catches it the day its last caller goes.
# This check covers what rustc cannot see: it flags a `pub` fn, struct,
# enum, const, static, trait or type (or a `pub use … as` alias) under
# `crates/<c>/src`, outside `mod tests`, whose name appears in no `.rs` file
# outside `crates/<c>/src` — other crates, the root `src/`, `tests/` and
# `examples/`, `benchmark/src`, the crate's own `tests/` and `benches/`, and
# its binaries (`src/bin/`, `src/main.rs`) all count as outside. A type named
# in a `pub` signature, a `pub` field, or the body of a `pub` enum or trait of
# its own crate counts as named: rustc's `private_interfaces` would refuse to
# narrow it. `pub_allow` lists the exceptions (at most 5, each with its
# reason); an entry that no longer suppresses anything fails too.
#
# Citation gate (ROADMAP item 19(a)): a "ROADMAP item N", "ROADMAP items N"
# or "ROADMAP N" must name an item of ROADMAP.md's open-items list (the
# "Done" stubs count as items), and a "DESIGN.md §N" a `## N.` heading of
# DESIGN.md. A citation may break across a line and its comment marker. Not
# read: ROADMAP.md itself, CHANGES.md (a history, citing items as they were
# numbered when each line was written) and `benchmark/` (ROADMAP item 1(a)
# rewrites its README).
#
# The benchmark harness (`benchmark/`, its own package) is type-checked first:
# it names `pub` items (`split_stack`, `ServerStats`, `Exec`, `TimedExec`'s
# trait methods) that the workspace build never sees, so narrowing one fails
# here instead of after the whole test suite.
#
# Doc-link gate: `cargo doc` with `rustdoc::broken-intra-doc-links` denied,
# so a doc link to a deleted or renamed item fails instead of rendering as
# plain text, and with `rustdoc::private-intra-doc-links` denied, so a public
# item's docs do not link to an item the rendered docs leave out (name a
# private item in a code span). It documents the repo's own packages only
# (every `crates/*` package and the root one): `--workspace` would also
# document the vendored shims, and the `proptest` shim's docs carry a link
# of their own that does not resolve.
#
# Format gate (ROADMAP item 19): the tree is what `cargo fmt --all` leaves
# under `rustfmt.toml`, so a change carries no formatting drift for the next
# one to sweep up. `benchmark/` is its own package and is not covered.
#
# Bench gate: every `[[bench]]` target of `crates/bench/Cargo.toml` is one
# that `scripts/bench_smoke.sh` runs (its `BENCHES=(...)` list or a
# `--bench NAME`), so each timing the repo reports is taken by a script;
# a bench nothing runs records no number and goes stale unseen.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! unformatted="$(cargo fmt --all -- --check -l)"; then
    echo "lint: the tree is not rustfmt-clean (run \`cargo fmt --all\`):" >&2
    echo "$unformatted" >&2
    exit 1
fi
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
# checkpoint must not come back beside the `ORBIT2CKPT` container.
json_ckpt="$(for f in crates/autograd/src/*.rs crates/core/src/checkpoint.rs; do
    awk -v f="$f" '/^mod tests \{/ { exit }
        /params\.json|struct Snapshot|serde_json::to_string[_a-z]*\([^)]*([Pp]aram|[Ss]tore|[Tt]ensor)/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$json_ckpt" ]]; then
    echo "lint: a JSON tensor checkpoint outside a test module (write an ORBIT2CKPT tensor section, crates/core/src/checkpoint.rs):" >&2
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
composed_tail="$(for f in crates/model/src/*.rs; do
    case "$f" in crates/model/src/exec.rs | crates/model/src/infer.rs) continue ;; esac
    awk -v f="$f" '/^mod tests \{/ { exit } /resize_bilinear/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$composed_tail" ]]; then
    echo "lint: resize_bilinear outside exec.rs and infer.rs under crates/model/src (a tail is one op: Exec::upsample_conv):" >&2
    echo "$composed_tail" >&2
    exit 1
fi
composite="$(for site in crates/model/src/exec.rs:Binder crates/model/src/infer.rs:InferenceSession; do
    for op in attention upsample_conv; do
        awk -v ctx="${site#*:}" -v op="$op" '/^mod tests \{/ { exit }
            $0 ~ "^impl.* Exec for " ctx "[<{ ]" { inside = 1 }
            inside && /^}/ { inside = 0 }
            inside && $0 ~ "^    fn " op "\\(" { found = 1 }
            END { if (!found) print FILENAME ": impl Exec for " ctx " has no fn " op }' "${site%%:*}"
    done
done)"
if [[ -n "$composite" ]]; then
    echo "lint: a context runs a composite's default body (override both composites in both contexts, crates/model/src/exec.rs):" >&2
    echo "$composite" >&2
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
env_knob="$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    case "$f" in crates/tensor/src/pool.rs | crates/core/src/fault.rs | crates/bench/src/lib.rs) continue ;; esac
    awk -v f="$f" '/^mod tests \{/ { exit } /env::var|var_os/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$env_knob" ]]; then
    echo "lint: an environment read outside the three knob sites (one production path per kernel, DESIGN.md §7):" >&2
    echo "$env_knob" >&2
    exit 1
fi
pack_site="$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    [[ "$f" == crates/tensor/src/qgemm.rs ]] && continue
    awk -v f="$f" '/^mod tests \{/ { exit } /PackedWeight::(pack|from_layout)\(/ && !/Int8/ { print f ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$pack_site" ]]; then
    echo "lint: a resident f32 weight pack (an f32 linear reads its weight by the fused::IN_PLACE_MAX_ROWS rule, DESIGN.md §9):" >&2
    echo "$pack_site" >&2
    exit 1
fi
smoke_benches="$(sed -n -e 's/^BENCHES=(\(.*\))$/\1/p' -e 's/.*--bench \([a-z0-9_][a-z0-9_]*\).*/\1/p' scripts/bench_smoke.sh | tr ' ' '\n')"
unrun_bench="$(awk '/^\[\[bench\]\]/ { b = 1; next } /^\[/ { b = 0 } b && /^name = / { gsub(/"/, "", $3); print $3 }' crates/bench/Cargo.toml |
    while read -r bench; do
        grep -qx "$bench" <<<"$smoke_benches" || echo "crates/bench/Cargo.toml: [[bench]] $bench"
    done)"
if [[ -n "$unrun_bench" ]]; then
    echo "lint: a bench target scripts/bench_smoke.sh does not run (run it there or delete it):" >&2
    echo "$unrun_bench" >&2
    exit 1
fi
# `file:name`, or `file:*` for every item in the file; the reason follows.
pub_allow='
crates/metrics/src/regression.rs:latitude_weighted_rmse Table IV score ROADMAP item 3 records beside r2_score and rmse
'
unreferenced_pub="$(find crates src tests examples benchmark/src -name '*.rs' | sort | xargs awk -v allow="$pub_allow" '
    function words(s, into, skip,    w) {
        while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(s, RSTART, RLENGTH)
            if (w != skip) into[owner SUBSEP w] = 1
            s = substr(s, RSTART + RLENGTH)
        }
    }
    BEGIN {
        n = split(allow, entries, "\n")
        for (i = 1; i <= n; i++) if (split(entries[i], f, " ") > 0) allowed[f[1]] = 1
    }
    FNR == 1 {
        owner = "outside"; in_tests = 0; sig = 0; body = ""
        if (FILENAME !~ /\/src\/(bin\/|main\.rs$)/ && match(FILENAME, /^crates\/[^\/]+\/src\//))
            owner = substr(FILENAME, 1, RLENGTH)
        owners[owner] = 1
    }
    {
        words($0, seen, "")
        if (owner == "outside" || in_tests) next
        if ($0 ~ /^mod tests \{/) { in_tests = 1; next }
        if (match($0, /^[ \t]*pub ((unsafe|const|async) )*(fn|struct|enum|const|static|trait|type) [A-Za-z_][A-Za-z0-9_]*/) ||
            match($0, /^[ \t]*pub use .* as [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
            decl[owner SUBSEP name] = FILENAME ":" FNR
            sig = 1
            if ($0 ~ /^[ \t]*pub (enum|trait) /) { body = $0; sub(/[^ \t].*/, "", body); body = body "}" }
        }
        # A signature runs to its `{` or `;`; a `pub` field and an
        # associated type in a trait impl are one line each.
        if (sig || body != "" || $0 ~ /^[ \t]*(pub [a-z_][a-z0-9_]*:|type [A-Za-z_][A-Za-z0-9_]* = )/)
            words($0, named, sig ? name : "")
        if (sig && $0 ~ /[{;]/) sig = 0
        if (body != "" && $0 == body) body = ""
    }
    END {
        for (k in decl) {
            split(k, p, SUBSEP)
            if (k in named) continue
            hit = 0
            for (o in owners) if (o != p[1] && ((o SUBSEP p[2]) in seen)) { hit = 1; break }
            if (hit) continue
            file = decl[k]; sub(/:[0-9]+$/, "", file)
            if ((file ":*") in allowed) { used[file ":*"] = 1; continue }
            if ((file ":" p[2]) in allowed) { used[file ":" p[2]] = 1; continue }
            print decl[k] ": pub " p[2] " is named nowhere outside its crate"
        }
        for (e in allowed) if (!(e in used)) print "scripts/lint.sh: allowlist entry " e " suppresses nothing"
    }' | sort)"
if [[ -n "$unreferenced_pub" ]]; then
    echo "lint: a pub item nothing outside its crate names (narrow it to pub(crate) or private, ROADMAP item 10):" >&2
    echo "$unreferenced_pub" >&2
    exit 1
fi
roadmap_items="$(awk '/^## / { open = ($0 == "## Open items") }
    open && match($0, /^[0-9]+\. /) { print substr($0, 1, RLENGTH - 2) }' ROADMAP.md)"
design_sections="$(sed -n 's/^## \([0-9][0-9]*\)\. .*/\1/p' DESIGN.md)"
stale_cite="$(git ls-files -z --cached --others --exclude-standard -- . ':!benchmark/' ':!ROADMAP.md' ':!CHANGES.md' |
    ITEMS="$roadmap_items" SECTIONS="$design_sections" xargs -0 perl -0777 -ne '
        BEGIN { %item = map { $_ => 1 } split " ", $ENV{ITEMS}; %sect = map { $_ => 1 } split " ", $ENV{SECTIONS} }
        my $gap = qr{(?:\s|//[/!]?|#)+};
        while (/\bROADMAP$gap(?:items?$gap)?(\d+)|\bDESIGN\.md$gap§(\d+)/g) {
            my ($cite, $known) = defined $1 ? ("ROADMAP item $1", $item{$1}) : ("DESIGN.md §$2", $sect{$2});
            next if $known;
            my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
            print "$ARGV:$line: $cite\n";
        }')"
if [[ -n "$stale_cite" ]]; then
    echo "lint: a citation names no ROADMAP.md item or DESIGN.md section:" >&2
    echo "$stale_cite" >&2
    exit 1
fi
cargo check -q --manifest-path benchmark/Cargo.toml --all-targets
doc_packages=(-p orbit2-repro)
for manifest in crates/*/Cargo.toml; do
    doc_packages+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D rustdoc::broken-intra-doc-links -D rustdoc::private-intra-doc-links" cargo doc -q --no-deps "${doc_packages[@]}"
exec cargo clippy --workspace --all-targets -- -D warnings -D unsafe_code -W clippy::redundant_clone "$@"
