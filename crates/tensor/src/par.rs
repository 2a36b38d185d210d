//! The grain rule: when a kernel's parallel call is worth another thread.
//!
//! A parallel call made by a detached job on a registry worker offers its
//! pieces to idle workers (the vendored rayon shim's header says how); off
//! the registry it queues every piece and blocks. Either way help costs a wake-up and a join, so
//! **no piece is offered unless it carries more work than one fork/join
//! round trip** — a shorter one is finished sooner by the thread that has
//! it, and the sibling it would have woken competes with the server's
//! socket threads for nothing. Every `par_*` call site under this crate and
//! `orbit2-autograd` states its work through the two functions here and
//! nowhere else: a site that iterates natural items (rows, planes, bands)
//! passes `min_items` to the shim's `with_min_len`; a site that cuts its
//! own chunks asks [`pieces`] how many to cut.
//!
//! The rule bounds the *split*, never the bits: each output element is
//! produced by one piece in an order that does not depend on where the
//! cuts fall (`tests/split_invariance.rs` at the workspace root holds every
//! kernel to that on both sides of the threshold).

/// Work a piece must carry to be offered, in *element visits*: one f32 of a
/// streaming pass, 0.4 ns on the reference 2-core guest
/// (`elementwise/same/1156x256`, `exp/1156x1156`). 2¹⁶ visits are 26 µs,
/// set against `crates/bench/benches/kernels.rs`'s `fork_join/*` cells
/// there. A two-piece call whose helpers really wake and report back
/// (`fork_join/caller`) is a 9–52 µs round trip from run to run, some
/// 20 µs when the box is quiet: cutting work `W` in two pays once `W / 2`
/// exceeds that, and a shorter piece is finished by its forker before a
/// helper can arrive — the forker having still paid for the offer
/// (`fork_join/worker_idle`: 10 µs for the futex wake, 3 µs when the
/// sibling parked within the hypervisor's halt-poll window). With nobody
/// idle a call is the inline path (`fork_join/worker_busy`, 50 ns). Twice
/// this grain was tried and is too coarse: `train-step`'s sample generation
/// (57–188 K-element passes on the calling thread) read 12.4 → 14.8 ms a
/// step.
pub const GRAIN: usize = 1 << 16;

/// Multiply-adds of a vectorised kernel (the GEMM microkernel, the direct
/// convolution, `simd::dot`) that cost one element visit. Set when
/// `gemm_f32/512` ran at 0.024 ns per multiply-add on one thread; on the
/// 2-core AVX-512 guest it now runs at 0.013 ns (0.014 ns before the GEMM
/// tile stayed in registers through its store), so a visit here is about
/// 0.2 ns of kernel. Moving it moves every split: that is a measured
/// change of its own.
pub const MACS_PER_VISIT: usize = 16;

/// How many pieces to cut `work` element visits into on this thread: as
/// many as may run at once, each at least a [`GRAIN`].
pub fn pieces(work: usize) -> usize {
    match work / GRAIN {
        0 | 1 => 1,
        most => rayon::current_num_threads().min(most),
    }
}

/// The fewest items of `work_per_item` element visits that make a piece:
/// the argument for `with_min_len` at a site that iterates natural items.
pub(crate) fn min_items(work_per_item: usize) -> usize {
    GRAIN.div_ceil(work_per_item.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_piece_is_never_smaller_than_the_grain() {
        let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        four.install(|| {
            assert_eq!(pieces(0), 1);
            assert_eq!(pieces(2 * GRAIN - 1), 1);
            assert_eq!(pieces(2 * GRAIN), 2);
            assert_eq!(pieces(3 * GRAIN + 5), 3);
            assert_eq!(pieces(100 * GRAIN), 4);
        });
        assert_eq!(min_items(GRAIN), 1);
        assert_eq!(min_items(GRAIN / 4 + 1), 4);
        assert_eq!(min_items(1), GRAIN);
        assert_eq!(min_items(0), GRAIN);
    }
}
