//! Real-kernel Hybrid-OP ablation (paper Sec. III-D).
//!
//! Hybrid-OP shards a matrix chain `X · A · B` in alternating column/row
//! dimensions: `A` column-sharded, `B` row-sharded, so the intermediate
//! `X·A` stays sharded and the only synchronization is one reduction of the
//! final partial products. Naive tensor parallelism shards both matrices
//! the same way and must all-gather the intermediate between the two
//! matmuls. On CPU the "all-gather" is a memcpy-merge across shard buffers;
//! the bench measures the saved merge.

use orbit2_tensor::matmul::matmul_block_seq;
use orbit2_tensor::random::randn;
use orbit2_tensor::Tensor;
use rayon::prelude::*;

/// Inputs of the chain benchmark.
pub struct ChainInputs {
    /// `X [n, d]`.
    pub x: Tensor,
    /// `A [d, d]`.
    pub a: Tensor,
    /// `B [d, d]`.
    pub b: Tensor,
}

/// Build deterministic inputs.
pub fn chain_inputs(n: usize, d: usize, seed: u64) -> ChainInputs {
    ChainInputs {
        x: randn(&[n, d], seed),
        a: randn(&[d, d], seed + 1),
        b: randn(&[d, d], seed + 2),
    }
}

/// Hybrid-OP chain: A column-sharded, B row-sharded; each shard computes
/// `(X · A_col_s) · B_row_s` independently and the partial outputs are
/// summed once.
pub fn chain_hybrid_op(inp: &ChainInputs, shards: usize) -> Tensor {
    let (n, d) = (inp.x.shape()[0], inp.x.shape()[1]);
    assert_eq!(d % shards, 0);
    let cols = d / shards;
    let partials: Vec<Vec<f32>> = (0..shards)
        .into_par_iter()
        .map(|s| {
            // A's column shard: [d, cols]; B's row shard: [cols, d].
            let a_shard = shard_columns(&inp.a, s, cols);
            let b_shard = inp.b.slice_axis(0, s * cols, cols);
            let mut mid = vec![0.0f32; n * cols];
            matmul_block_seq(inp.x.data(), a_shard.data(), &mut mid, n, d, cols);
            let mut out = vec![0.0f32; n * d];
            matmul_block_seq(&mid, b_shard.data(), &mut out, n, cols, d);
            out
        })
        .collect();
    // ONE reduction: sum the partial outputs.
    let mut out = vec![0.0f32; n * d];
    for p in partials {
        for (o, v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    Tensor::from_vec(vec![n, d], out)
}

/// Naive tensor parallelism: both matmuls column-sharded, requiring an
/// all-gather (merge of the intermediate) between them, then a second
/// merge of the outputs.
pub fn chain_naive_tp(inp: &ChainInputs, shards: usize) -> Tensor {
    let (n, d) = (inp.x.shape()[0], inp.x.shape()[1]);
    assert_eq!(d % shards, 0);
    let cols = d / shards;
    // Stage 1: X · A, column sharded.
    let mids: Vec<Vec<f32>> = (0..shards)
        .into_par_iter()
        .map(|s| {
            let a_shard = shard_columns(&inp.a, s, cols);
            let mut mid = vec![0.0f32; n * cols];
            matmul_block_seq(inp.x.data(), a_shard.data(), &mut mid, n, d, cols);
            mid
        })
        .collect();
    // ALL-GATHER: merge the column shards into the full intermediate.
    let mut full_mid = vec![0.0f32; n * d];
    for (s, m) in mids.iter().enumerate() {
        for r in 0..n {
            full_mid[r * d + s * cols..r * d + (s + 1) * cols].copy_from_slice(&m[r * cols..(r + 1) * cols]);
        }
    }
    // Stage 2: mid · B, column sharded again.
    let outs: Vec<Vec<f32>> = (0..shards)
        .into_par_iter()
        .map(|s| {
            let b_shard = shard_columns(&inp.b, s, cols);
            let mut out = vec![0.0f32; n * cols];
            matmul_block_seq(&full_mid, b_shard.data(), &mut out, n, d, cols);
            out
        })
        .collect();
    // Second merge.
    let mut out = vec![0.0f32; n * d];
    for (s, m) in outs.iter().enumerate() {
        for r in 0..n {
            out[r * d + s * cols..r * d + (s + 1) * cols].copy_from_slice(&m[r * cols..(r + 1) * cols]);
        }
    }
    Tensor::from_vec(vec![n, d], out)
}

fn shard_columns(m: &Tensor, shard: usize, cols: usize) -> Tensor {
    m.slice_axis(1, shard * cols, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schemes_match_reference() {
        let inp = chain_inputs(16, 32, 1);
        // The unsharded chain.
        let reference = inp.x.matmul(&inp.a).matmul(&inp.b);
        for shards in [1usize, 2, 4] {
            let h = chain_hybrid_op(&inp, shards);
            let n = chain_naive_tp(&inp, shards);
            assert!(h.max_abs_diff(&reference) < 1e-3, "hybrid {shards} shards");
            assert!(n.max_abs_diff(&reference) < 1e-3, "naive {shards} shards");
        }
    }

    #[test]
    fn hybrid_moves_less_intermediate_data() {
        // The structural win: naive TP materializes the full n x d
        // intermediate; hybrid never does. Verified by construction here;
        // the criterion bench measures the wall-clock consequence.
        let inp = chain_inputs(32, 64, 2);
        let h = chain_hybrid_op(&inp, 4);
        assert!(h.all_finite());
    }
}
