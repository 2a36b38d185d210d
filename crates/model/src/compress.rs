//! The adaptive spatial compression module (paper Sec. III-A, Fig. 3).
//!
//! The aggregated feature tokens are projected back to image space; a
//! quad-tree over the Canny edge density of that image decides which token
//! regions can be merged. The *structure* decision is non-differentiable
//! (computed on plain tensors, like the CPU-side quad-tree construction in
//! the paper's Sec. III-C); the pooling/unpooling of token features runs
//! through the execution context ([`Exec::pool_rows`] / [`Exec::unpool_rows`]),
//! so it is differentiable when training and tape-free at inference.

use crate::exec::{Exec, RowGroups};
use orbit2_imaging::quadtree::{QuadTree, QuadTreeParams};
use orbit2_tensor::Tensor;

/// The compression decision for one sample: token groups per quad-tree leaf.
#[derive(Debug, Clone)]
pub struct CompressionPlan {
    /// For each kept (merged) token: the indices of the uniform-grid tokens
    /// it pools. Shared (`Arc`) so every forward that replays the plan
    /// clones a pointer, not the nested vectors.
    pub groups: RowGroups,
    /// Token-grid height.
    pub hp: usize,
    /// Token-grid width.
    pub wp: usize,
}

impl CompressionPlan {
    /// Identity plan: every token is its own group (compression disabled;
    /// the module "acts as an identity function").
    pub(crate) fn identity(hp: usize, wp: usize) -> Self {
        Self { groups: (0..hp * wp).map(|i| vec![i]).collect::<Vec<_>>().into(), hp, wp }
    }

    /// Build a plan from the aggregated feature image (token-space
    /// saliency), targeting roughly `target_compression`x token reduction
    /// by searching the density threshold.
    pub(crate) fn adaptive(feature_img: &Tensor, target_compression: f32) -> Self {
        assert_eq!(feature_img.ndim(), 2);
        let (hp, wp) = (feature_img.shape()[0], feature_img.shape()[1]);
        assert!(target_compression >= 1.0);
        if target_compression == 1.0 {
            return Self::identity(hp, wp);
        }
        // Search over density thresholds for the closest token reduction.
        let mut best: Option<(f32, QuadTree)> = None;
        for thresh in [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let qt = QuadTree::build(
                feature_img.data(),
                hp,
                wp,
                QuadTreeParams {
                    density_threshold: thresh,
                    min_patch: 1,
                    max_patch: (hp.max(wp)).next_power_of_two(),
                    ..Default::default()
                },
            );
            let ratio = (hp * wp) as f32 / qt.token_count() as f32;
            let err = (ratio.ln() - target_compression.ln()).abs();
            match &best {
                Some((e, _)) if *e <= err => {}
                _ => best = Some((err, qt)),
            }
        }
        let (_, qt) = best.unwrap();
        let groups: Vec<Vec<usize>> = qt
            .patches
            .iter()
            .map(|p| {
                let mut g = Vec::with_capacity(p.area());
                for y in p.y0..p.y0 + p.h {
                    for x in p.x0..p.x0 + p.w {
                        g.push(y * wp + x);
                    }
                }
                g
            })
            .collect();
        Self { groups: groups.into(), hp, wp }
    }

    /// Number of tokens after compression.
    pub fn compressed_len(&self) -> usize {
        self.groups.len()
    }

    /// Compress token features `[N, D]` to `[M, D]` (differentiable on the
    /// tape context).
    pub(crate) fn compress<E: Exec>(&self, ex: &E, tokens: &E::Value) -> E::Value {
        assert_eq!(ex.shape(tokens)[0], self.hp * self.wp, "token count mismatch");
        ex.pool_rows(tokens, &self.groups)
    }

    /// Decompress `[M, D]` back to the full `[N, D]` grid.
    pub(crate) fn decompress<E: Exec>(&self, ex: &E, compressed: &E::Value) -> E::Value {
        ex.unpool_rows(compressed, &self.groups, self.hp * self.wp)
    }
}

/// Project aggregated tokens to a token-space saliency image by mean over
/// the embedding dimension (plain tensor op — structure decisions are
/// outside the gradient graph).
pub(crate) fn token_saliency(tokens: &Tensor, hp: usize, wp: usize) -> Tensor {
    assert_eq!(tokens.shape()[0], hp * wp);
    tokens.mean_axis(1).into_reshape(vec![hp, wp])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use orbit2_autograd::{ParamStore, Tape};
    use orbit2_tensor::random::randn;

    fn edge_image(hp: usize, wp: usize) -> Tensor {
        Tensor::from_vec(vec![hp, wp], (0..hp * wp).map(|i| if i % wp >= wp / 2 { 1.0 } else { 0.0 }).collect())
    }

    #[test]
    fn identity_plan_is_lossless() {
        let plan = CompressionPlan::identity(4, 4);
        assert_eq!(plan.compressed_len(), 16);
        let store = ParamStore::new();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.constant(randn(&[16, 8], 1));
        let y = plan.decompress(&binder, &plan.compress(&binder, &x));
        y.value().assert_close(&x.value(), 1e-6);
    }

    #[test]
    fn adaptive_plan_hits_target_roughly() {
        let img = edge_image(32, 32);
        let plan = CompressionPlan::adaptive(&img, 4.0);
        let ratio = 1024.0 / plan.compressed_len() as f32;
        assert!(ratio > 1.5, "got ratio {ratio}");
        // Groups must partition all tokens.
        let mut seen = vec![false; 1024];
        for g in plan.groups.iter() {
            for &i in g {
                assert!(!seen[i], "token {i} in two groups");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn smooth_regions_get_bigger_groups() {
        let img = edge_image(32, 32);
        let plan = CompressionPlan::adaptive(&img, 8.0);
        // The largest group should be much bigger than the smallest.
        let max = plan.groups.iter().map(Vec::len).max().unwrap();
        let min = plan.groups.iter().map(Vec::len).min().unwrap();
        assert!(max >= 4 * min.max(1), "max {max}, min {min}");
    }

    #[test]
    fn compress_decompress_preserves_group_means() {
        let img = edge_image(16, 16);
        let plan = CompressionPlan::adaptive(&img, 4.0);
        let store = ParamStore::new();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.constant(randn(&[256, 4], 3));
        let rec = plan.decompress(&binder, &plan.compress(&binder, &x)).value();
        // Within each group the reconstruction is the group's mean.
        let xv = x.value();
        for g in plan.groups.iter() {
            let mut mean = [0.0f32; 4];
            for &i in g {
                for (m, &v) in mean.iter_mut().zip(&xv.data()[i * 4..(i + 1) * 4]) {
                    *m += v / g.len() as f32;
                }
            }
            for &i in g {
                for (j, &m) in mean.iter().enumerate() {
                    assert!((rec.data()[i * 4 + j] - m).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn gradients_flow_through_compression() {
        let img = edge_image(8, 8);
        let plan = CompressionPlan::adaptive(&img, 2.0);
        let store = ParamStore::new();
        let tape = Tape::new();
        let binder = Binder::new(&tape, &store);
        let x = tape.leaf(randn(&[64, 4], 5));
        let loss = plan.decompress(&binder, &plan.compress(&binder, &x)).square().sum();
        let grads = tape.backward(loss);
        let g = grads.get(x).expect("gradient must reach tokens");
        assert!(g.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn saliency_shape() {
        let t = randn(&[12, 6], 7);
        let s = token_saliency(&t, 3, 4);
        assert_eq!(s.shape(), &[3, 4]);
    }
}
