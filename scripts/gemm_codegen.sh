#!/usr/bin/env bash
# Check that the GEMM kernel's accumulator tile stays in registers from its
# zeroing to its store (DESIGN.md §11, codegen lesson 2). Disassembles the
# qgemm drive closures and kernels of a release binary, finds every k loop
# of the W = 4 kernel (a run of FMAs into 24 distinct zmm accumulators) and
# counts, around each:
#   - zmm loads from the stack in the 60 instructions before it (a tile
#     that lives in memory is zeroed there by a memset and reloaded);
#   - zmm stores to the stack in the 60 instructions after it (its spill).
# A full panel shows neither; a panel with a ragged lane group stores that
# one group to the stack for its lane-by-lane epilogue. Fails if any W = 4
# loop reloads, or stores more than one vector, if a 1536-byte (0x600: six
# rows of four zmm) memset zeroes a tile, or if no W = 4 loop is found (no
# AVX-512, or the symbols moved).
#
# Usage: scripts/gemm_codegen.sh [BINARY]   (default: target/release/repro,
#        after `cargo build --release -p orbit2-bench --bin repro`)
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
bin="${1:-target/release/repro}"

objdump -d --no-show-raw-insn -C "$bin" | awk '
function check(   i, j, d, acc, start, end, reloads, spills, k) {
    for (i = 1; i <= n; i++)
        if (line[i] ~ /call.*memset/)
            for (j = (i > 4 ? i - 4 : 1); j < i; j++)
                if (line[j] ~ /\$0x600,%edx/) { printf "%s: memset of a W = 4 tile\n", fn; memsets++ }
    i = 1
    while (i <= n) {
        if (line[i] !~ /vfmadd[0-9]+ps .*%zmm[0-9]+$/) { i++; continue }
        # One k loop: FMAs no more than 8 instructions apart.
        start = i; end = i; delete acc; k = 0
        for (j = i; j <= n && j - end <= 8; j++) {
            if (line[j] ~ /vfmadd[0-9]+ps .*%zmm[0-9]+$/) {
                d = line[j]; sub(/.*,/, "", d)
                if (!(d in acc)) { acc[d] = 1; k++ }
                end = j
            }
        }
        i = end + 1
        if (k != 24) continue
        reloads = 0; spills = 0
        for (j = (start > 60 ? start - 60 : 1); j < start; j++)
            if (line[j] ~ /vmov[au]ps -?0x[0-9a-f]+\(%rsp\),%zmm/) reloads++
        for (j = end + 1; j <= n && j <= end + 60; j++)
            if (line[j] ~ /vmov[au]ps %zmm[0-9]+,-?0x[0-9a-f]*\(%rsp\)/) spills++
        loops++
        printf "%s: W = 4 k loop: %d stack reloads before, %d stack stores after\n", fn, reloads, spills
        if (reloads > 0 || spills > 1) bad++
    }
}
/^[0-9a-f]+ <.*>:$/ {
    if (infn) check()
    infn = ($0 ~ /<orbit2_tensor::qgemm::(drive::\{\{closure\}\}|kernel)/)
    fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
    n = 0; delete line
    next
}
infn { line[++n] = $0 }
END {
    if (infn) check()
    if (loops == 0) { print "gemm_codegen: no W = 4 k loop found"; exit 1 }
    if (memsets > 0) { printf "gemm_codegen: %d tile memsets\n", memsets; exit 1 }
    if (bad > 0) { printf "gemm_codegen: %d of %d W = 4 k loops keep the tile in memory\n", bad, loops; exit 1 }
    printf "gemm_codegen: all %d W = 4 k loops keep the tile in registers\n", loops
}'
