//! The Bayesian training objective (paper Sec. III-A):
//!
//! ```text
//! argmin  ||y - x̂||²_D  +  Σ_k Σ_i Σ_{j ∈ C(i)} b_ij |x_ki - x_kj|
//! ```
//!
//! The first term is the data likelihood — a latitude-weighted MSE (`D` is
//! the diagonal cos-latitude weighting). The second is a generalized Markov
//! Random Field total-variation prior over each pixel's neighbourhood with
//! weights `b_ij` inversely proportional to pixel distance (1 for the four
//! edge neighbours, 1/√2 for the four diagonal ones): it promotes local
//! smoothness while preserving edges. The L1 norm is smoothed with a
//! Charbonnier `sqrt(x² + ε²)` so the objective stays differentiable.

use orbit2_autograd::Var;
use orbit2_tensor::Tensor;

/// Charbonnier smoothing epsilon for |·|.
const TV_EPS: f32 = 1e-3;

/// Configuration of the Bayesian loss.
#[derive(Debug, Clone, Copy)]
pub struct BayesianLossCfg {
    /// Weight of the total-variation prior relative to the likelihood.
    pub tv_weight: f32,
}

impl Default for BayesianLossCfg {
    fn default() -> Self {
        Self { tv_weight: 0.05 }
    }
}

/// Evaluate the Bayesian loss of a prediction `[C, H, W]` against a target,
/// with `lat_weights` an `[H, W]` (or broadcastable) weight field normalized
/// to mean 1.
pub fn bayesian_loss<'t>(
    pred: Var<'t>,
    target: &Tensor,
    lat_weights: &Tensor,
    cfg: BayesianLossCfg,
) -> Var<'t> {
    let shape = pred.shape();
    assert_eq!(shape.len(), 3, "prediction must be [C, H, W]");
    assert_eq!(&shape[..], target.shape(), "pred/target shape mismatch");
    let likelihood = pred.weighted_mse(target, Some(lat_weights));
    if cfg.tv_weight == 0.0 {
        return likelihood;
    }
    let tv = total_variation(pred);
    likelihood.add(tv.scale(cfg.tv_weight))
}

/// The MRF total-variation prior alone: the mean over each direction's
/// neighbour pairs, weighted by inverse distance.
fn total_variation(pred: Var<'_>) -> Var<'_> {
    let shape = pred.shape();
    let (h, w) = (shape[1], shape[2]);
    assert!(h >= 2 && w >= 2, "TV needs at least a 2x2 field");
    // Horizontal neighbour differences: x[:, :, 1:] - x[:, :, :-1].
    let dx = pred
        .slice_axis(2, 1, w - 1)
        .sub(pred.slice_axis(2, 0, w - 1))
        .smooth_abs(TV_EPS);
    // Vertical: x[:, 1:, :] - x[:, :-1, :].
    let dy = pred
        .slice_axis(1, 1, h - 1)
        .sub(pred.slice_axis(1, 0, h - 1))
        .smooth_abs(TV_EPS);
    let edges = dx.mean().add(dy.mean());
    // b_ij = 1/distance = 1/sqrt(2) for diagonal pairs.
    let inv_sqrt2 = std::f32::consts::FRAC_1_SQRT_2;
    let dd = pred
        .slice_axis(1, 1, h - 1)
        .slice_axis(2, 1, w - 1)
        .sub(pred.slice_axis(1, 0, h - 1).slice_axis(2, 0, w - 1))
        .smooth_abs(TV_EPS);
    let da = pred
        .slice_axis(1, 1, h - 1)
        .slice_axis(2, 0, w - 1)
        .sub(pred.slice_axis(1, 0, h - 1).slice_axis(2, 1, w - 1))
        .smooth_abs(TV_EPS);
    edges.add(dd.mean().scale(inv_sqrt2)).add(da.mean().scale(inv_sqrt2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_autograd::Tape;
    use orbit2_tensor::random::randn;

    fn weights(h: usize, w: usize) -> Tensor {
        Tensor::ones(vec![h, w])
    }

    #[test]
    fn perfect_smooth_prediction_has_near_zero_loss() {
        let tape = Tape::new();
        let target = Tensor::full(vec![2, 4, 4], 1.5);
        let pred = tape.leaf(target.clone());
        let loss = bayesian_loss(pred, &target, &weights(4, 4), BayesianLossCfg::default());
        // Likelihood 0; TV of constant field ~ eps.
        assert!(loss.value().item() < 1e-3);
    }

    #[test]
    fn likelihood_term_matches_weighted_mse() {
        let tape = Tape::new();
        let target = Tensor::zeros(vec![1, 2, 2]);
        let pred = tape.leaf(Tensor::from_vec(vec![1, 2, 2], vec![1.0, 1.0, 1.0, 1.0]));
        let cfg = BayesianLossCfg { tv_weight: 0.0 };
        let loss = bayesian_loss(pred, &target, &weights(2, 2), cfg);
        assert!((loss.value().item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn latitude_weighting_discounts_rows() {
        let tape = Tape::new();
        let target = Tensor::zeros(vec![1, 2, 2]);
        // Error only in row 0; weights kill row 0.
        let pred = tape.leaf(Tensor::from_vec(vec![1, 2, 2], vec![5.0, 5.0, 0.0, 0.0]));
        let w = Tensor::from_vec(vec![2, 2], vec![0.0, 0.0, 2.0, 2.0]);
        let cfg = BayesianLossCfg { tv_weight: 0.0 };
        let loss = bayesian_loss(pred, &target, &w, cfg);
        assert!(loss.value().item() < 1e-6);
    }

    #[test]
    fn tv_prior_penalizes_noise_more_than_smooth() {
        let tape = Tape::new();
        let smooth = tape.leaf(Tensor::from_vec(
            vec![1, 4, 4],
            (0..16).map(|i| i as f32 * 0.1).collect(),
        ));
        let noisy = tape.leaf(randn(&[1, 4, 4], 1));
        let tv_smooth = total_variation(smooth).value().item();
        let tv_noisy = total_variation(noisy).value().item();
        assert!(tv_noisy > tv_smooth * 2.0, "noisy {tv_noisy} vs smooth {tv_smooth}");
    }

    #[test]
    fn tv_preserves_edges_vs_l2() {
        // A step edge and a noisy field with the same L2 gradient energy:
        // the L1-style TV penalizes the step *less* than L2 would, which is
        // the edge-preserving property.
        let tape = Tape::new();
        // Step: one big jump of 4 across a single pair per row (two
        // identical rows so vertical differences vanish).
        let step = tape.leaf(Tensor::from_vec(
            vec![1, 2, 4],
            vec![0.0, 0.0, 4.0, 4.0, 0.0, 0.0, 4.0, 4.0],
        ));
        // Ramp: many small jumps summing to the same total variation.
        let ramp_row = [0.0, 4.0 / 3.0, 8.0 / 3.0, 4.0];
        let ramp = tape.leaf(Tensor::from_vec(
            vec![1, 2, 4],
            ramp_row.iter().chain(ramp_row.iter()).copied().collect(),
        ));
        // With identical rows each diagonal pair repeats a horizontal one.
        let tv_step = total_variation(step).value().item();
        let tv_ramp = total_variation(ramp).value().item();
        // L1 TV treats them (nearly) equally -> no edge penalty.
        assert!((tv_step - tv_ramp).abs() / tv_ramp < 0.01, "step {tv_step} vs ramp {tv_ramp}");
    }

    #[test]
    fn diagonal_neighbours_weigh_one_over_root_two() {
        // [[0, 0], [0, 1]]: one of the two horizontal and one of the two
        // vertical pairs differ by 1, as does the one `\` diagonal pair;
        // the `/` pair is equal.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1, 2, 2], vec![0.0, 0.0, 0.0, 1.0]));
        let one = (1.0f32 + TV_EPS * TV_EPS).sqrt();
        let edge = 2.0 * (one + TV_EPS) / 2.0;
        let want = edge + (one + TV_EPS) * std::f32::consts::FRAC_1_SQRT_2;
        let got = total_variation(x).value().item();
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn loss_is_differentiable_everywhere() {
        // Including at zero differences (Charbonnier smoothing).
        let tape = Tape::new();
        let target = Tensor::zeros(vec![1, 3, 3]);
        let pred = tape.leaf(Tensor::zeros(vec![1, 3, 3]));
        let loss = bayesian_loss(pred, &target, &weights(3, 3), BayesianLossCfg::default());
        let grads = tape.backward(loss);
        let g = grads.get(pred).unwrap();
        assert!(g.all_finite());
    }
}
