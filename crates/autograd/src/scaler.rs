//! Dynamic gradient scaling for emulated-BF16 mixed precision.
//!
//! The paper applies PyTorch's dynamic gradient scaling to keep BF16
//! gradients inside the representable range (Sec. III-D): the loss is
//! multiplied by a scale before backward; gradients are unscaled before the
//! optimizer step; if any gradient is non-finite the step is skipped and the
//! scale halves, otherwise the scale doubles every `growth_interval` good
//! steps.

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

    /// Account for one unscaled step: grow the scale after
    /// `growth_interval` finite steps in a row, back it off after a
    /// non-finite one. The caller unscales: the trainer folds `1 / scale`
    /// into its gradient reduce (`GradAccumulator::finish`) and passes on
    /// whether every element came out finite.
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

    #[test]
    fn non_finite_backs_off_and_skips() {
        let mut s = GradScaler::new(1024.0);
        s.record(false);
        assert_eq!(s.scale(), 512.0);
        assert_eq!(s.skipped_steps, 1);
        s.record(false);
        assert_eq!(s.scale(), 256.0);
        assert_eq!(s.skipped_steps, 2);
    }

    #[test]
    fn growth_after_interval() {
        let mut s = GradScaler::new(2.0).with_growth_interval(3);
        for _ in 0..2 {
            s.record(true);
        }
        assert_eq!(s.scale(), 2.0);
        s.record(true);
        assert_eq!(s.scale(), 4.0);
    }

    #[test]
    fn scale_floors_at_one() {
        let mut s = GradScaler::new(1.0);
        s.record(false);
        assert_eq!(s.scale(), 1.0);
    }

    #[test]
    fn state_round_trip_preserves_growth_progress() {
        let mut s = GradScaler::new(2.0).with_growth_interval(3);
        s.record(true);
        s.record(false);
        s.record(true);
        let saved = s.export_state();
        let mut restored = GradScaler::new(65536.0).with_growth_interval(3);
        restored.import_state(&saved);
        assert_eq!(restored.scale(), s.scale());
        assert_eq!(restored.skipped_steps, 1);
        // Growth progress continues exactly where it left off: one good
        // step is banked, so two more double the scale.
        for _ in 0..2 {
            restored.record(true);
        }
        assert_eq!(restored.scale(), s.scale() * 2.0);
    }
}
