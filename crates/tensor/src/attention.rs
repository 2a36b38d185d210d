//! The reference scaled-dot-product attention.
//!
//! The paper uses Flash Attention to map the innermost level of its
//! parallelism hierarchy onto GPU streaming multiprocessors (Sec. III-C/D).
//! This crate holds the quadratic reference only: the model composes
//! attention from `Exec` ops (`blocks::self_attention`), and a fused
//! attention op is to be checked against [`naive_attention`] (DESIGN.md,
//! "Tried and removed", has the streaming-softmax kernel's numbers).

use crate::tensor::Tensor;

/// Reference scaled-dot-product attention.
///
/// `q, k, v` are `[S, D]` (single head); returns `[S, D]`.
/// Materializes the full `[S, S]` score matrix — O(S^2) memory.
pub fn naive_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
    assert_eq!(q.ndim(), 2);
    assert_eq!(k.ndim(), 2);
    let d = q.shape()[1];
    assert_eq!(k.shape()[1], d);
    assert_eq!(v.shape()[0], k.shape()[0]);
    let scale = 1.0 / (d as f32).sqrt();
    let scores = q.matmul(&k.transpose2()).mul_scalar(scale);
    scores.softmax_last().matmul(v)
}

/// FLOP count of one scaled-dot-product attention over `s` tokens of width
/// `d` (forward only): `2*s^2*d` for QK^T plus `2*s^2*d` for PV.
pub fn attention_flops(s: usize, d: usize) -> u64 {
    4 * (s as u64) * (s as u64) * (d as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn;

    #[test]
    fn cross_attention_different_kv_length() {
        // Q has 10 tokens, KV has 23 (variable-aggregation cross attention).
        let q = randn(&[10, 8], 7);
        let k = randn(&[23, 8], 8);
        let v = randn(&[23, 8], 9);
        assert_eq!(naive_attention(&q, &k, &v).shape(), &[10, 8]);
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With V rows in [0,1], every output element stays in [0,1].
        let q = randn(&[12, 4], 10);
        let k = randn(&[12, 4], 11);
        let v = crate::random::rand_uniform(&[12, 4], 0.0, 1.0, 12);
        let o = naive_attention(&q, &k, &v);
        assert!(o.min_value() >= 0.0 && o.max_value() <= 1.0);
    }

    #[test]
    fn uniform_scores_average_values() {
        // Q = 0 makes all scores equal, so output = mean of V rows.
        let q = Tensor::zeros(vec![3, 4]);
        let k = randn(&[5, 4], 13);
        let v = randn(&[5, 4], 14);
        let o = naive_attention(&q, &k, &v);
        let vmean = v.mean_axis(0);
        for r in 0..3 {
            let row = o.slice_axis(0, r, 1).reshape(vec![4]);
            row.assert_close(&vmean, 1e-5);
        }
    }

    #[test]
    fn flop_count_is_quadratic() {
        assert_eq!(attention_flops(10, 4), 1600);
        assert_eq!(attention_flops(20, 4), 6400); // 2x tokens -> 4x flops
    }
}
