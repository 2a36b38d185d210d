//! Dynamic gradient scaling for emulated-BF16 mixed precision.
//!
//! The paper applies PyTorch's dynamic gradient scaling to keep BF16
//! gradients inside the representable range (Sec. III-D): the loss is
//! multiplied by a scale before backward; gradients are unscaled before the
//! optimizer step; if any gradient is non-finite the step is skipped and the
//! scale halves, otherwise the scale doubles every `growth_interval` good
//! steps.

use crate::params::{GradMap, Reduce, ReduceSpan};
use serde::{Deserialize, Serialize};

/// Dynamic loss/gradient scaler.
#[derive(Debug, Clone)]
pub struct GradScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    good_steps: u32,
    /// Count of steps skipped due to non-finite gradients.
    pub skipped_steps: u64,
}

impl Default for GradScaler {
    fn default() -> Self {
        Self::new(65536.0)
    }
}

impl GradScaler {
    /// Create a scaler with the given initial scale.
    pub fn new(init_scale: f32) -> Self {
        Self {
            scale: init_scale,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            good_steps: 0,
            skipped_steps: 0,
        }
    }

    /// Set how many consecutive good steps double the scale.
    pub fn with_growth_interval(mut self, interval: u32) -> Self {
        self.growth_interval = interval;
        self
    }

    /// Current loss scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bit-exact snapshot of the scaler state for checkpointing. Growth and
    /// backoff factors are configuration, reconstructed by the loader.
    pub fn export_state(&self) -> ScalerState {
        ScalerState {
            scale_bits: self.scale.to_bits(),
            good_steps: self.good_steps,
            skipped_steps: self.skipped_steps,
        }
    }

    /// Restore state captured by [`GradScaler::export_state`].
    pub fn import_state(&mut self, state: &ScalerState) {
        self.scale = f32::from_bits(state.scale_bits);
        self.good_steps = state.good_steps;
        self.skipped_steps = state.skipped_steps;
    }

    /// Unscale gradients in place and report whether they are all finite.
    ///
    /// When `false` is returned the step must be skipped (the scaler has
    /// already backed off its scale).
    pub fn unscale_and_check(&mut self, grads: &mut GradMap) -> bool {
        let spans = grads
            .values_mut()
            .map(|g| ReduceSpan { dst: g.data_mut(), tensor: 0, start: 0 })
            .collect();
        let unscale = Reduce { srcs: Vec::new(), jobs: 0, post: Some(1.0 / self.scale) };
        let finite = unscale.run(spans);
        self.record(finite);
        finite
    }

    /// Account for one unscaled step: grow the scale after
    /// `growth_interval` finite steps in a row, back it off after a
    /// non-finite one. For callers that fold the unscale (`1 / scale`) into
    /// their own reduce, as the trainer does.
    pub fn record(&mut self, finite: bool) {
        if finite {
            self.good_steps += 1;
            if self.good_steps >= self.growth_interval {
                self.scale *= self.growth_factor;
                self.good_steps = 0;
            }
        } else {
            self.scale = (self.scale * self.backoff_factor).max(1.0);
            self.good_steps = 0;
            self.skipped_steps += 1;
        }
    }
}

/// Bit-exact serializable [`GradScaler`] state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalerState {
    /// `f32::to_bits` of the current loss scale.
    pub scale_bits: u32,
    /// Consecutive good steps accumulated toward the next growth.
    pub good_steps: u32,
    /// Total steps skipped due to non-finite gradients.
    pub skipped_steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use orbit2_tensor::Tensor;

    fn grads_with(values: Vec<f32>) -> GradMap {
        let mut g = GradMap::new();
        let n = values.len();
        g.insert("w".into(), Tensor::from_vec(vec![n], values));
        g
    }

    #[test]
    fn unscale_divides_by_scale() {
        let mut s = GradScaler::new(4.0);
        let mut g = grads_with(vec![8.0, -2.0]);
        assert!(s.unscale_and_check(&mut g));
        assert_eq!(g["w"].data(), &[2.0, -0.5]);
    }

    #[test]
    fn non_finite_backs_off_and_skips() {
        let mut s = GradScaler::new(1024.0);
        let mut g = grads_with(vec![f32::INFINITY, 1.0]);
        assert!(!s.unscale_and_check(&mut g));
        assert_eq!(s.scale(), 512.0);
        assert_eq!(s.skipped_steps, 1);
        let mut g = grads_with(vec![f32::NAN]);
        assert!(!s.unscale_and_check(&mut g));
        assert_eq!(s.scale(), 256.0);
    }

    #[test]
    fn growth_after_interval() {
        let mut s = GradScaler::new(2.0).with_growth_interval(3);
        for _ in 0..3 {
            let mut g = grads_with(vec![1.0]);
            assert!(s.unscale_and_check(&mut g));
        }
        assert_eq!(s.scale(), 4.0);
    }

    #[test]
    fn scale_floors_at_one() {
        let mut s = GradScaler::new(1.0);
        let mut g = grads_with(vec![f32::NAN]);
        s.unscale_and_check(&mut g);
        assert!(s.scale() >= 1.0);
    }

    #[test]
    fn state_round_trip_preserves_growth_progress() {
        let mut s = GradScaler::new(2.0).with_growth_interval(3);
        let mut g = grads_with(vec![1.0]);
        assert!(s.unscale_and_check(&mut g));
        let mut g = grads_with(vec![f32::NAN]);
        assert!(!s.unscale_and_check(&mut g));
        let saved = s.export_state();
        let mut restored = GradScaler::new(65536.0).with_growth_interval(3);
        restored.import_state(&saved);
        assert_eq!(restored.scale(), s.scale());
        assert_eq!(restored.skipped_steps, 1);
        // Growth progress continues exactly where it left off.
        for _ in 0..3 {
            let mut g = grads_with(vec![1.0]);
            assert!(restored.unscale_and_check(&mut g));
        }
        assert_eq!(restored.scale(), s.scale() * 2.0);
    }
}
