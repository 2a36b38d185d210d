//! "IMERG-like" observation stream for the generalization experiment.
//!
//! The paper's Fig. 8 evaluates a model trained on reanalysis-style data
//! against the IMERG satellite product — two datasets with *different
//! statistical properties* ("Since ERA5 ... and IMERG contain uncertainties,
//! perfect alignment is not expected"). We reproduce that source mismatch by
//! observing the same underlying truth through a distorted sensor:
//! multiplicative log-normal retrieval noise, a power-law recalibration and
//! a detection threshold that censors drizzle.

use crate::synth::{gaussian_random_field, GrfSpec, WorldGenerator};

/// Parameters of the simulated satellite retrieval.
#[derive(Debug, Clone, Copy)]
pub struct ImergLikeParams {
    /// Std-dev of the multiplicative log-normal noise.
    pub noise_sigma: f32,
    /// Power-law recalibration exponent (`obs = a * truth^b`).
    pub gamma: f32,
    /// Gain of the recalibration.
    pub gain: f32,
    /// Minimum detectable precipitation (mm/day); below this reads 0.
    pub detection_threshold: f32,
    /// Seed for the retrieval noise (independent of the world seed).
    pub sensor_seed: u64,
}

impl Default for ImergLikeParams {
    fn default() -> Self {
        Self { noise_sigma: 0.25, gamma: 0.95, gain: 1.08, detection_threshold: 0.1, sensor_seed: 0xD00D }
    }
}

/// Observe the world's precipitation at timestep `t` through the simulated
/// satellite sensor.
pub fn observe_precipitation(world: &WorldGenerator, t: u64, params: ImergLikeParams) -> Vec<f32> {
    let truth = world.field("prcp", t);
    let (h, w) = (world.grid.h, world.grid.w);
    // Spatially-correlated retrieval noise (smooth, not per-pixel white).
    let noise = gaussian_random_field(h, w, GrfSpec { slope: 2.5 }, params.sensor_seed.wrapping_add(t));
    truth
        .iter()
        .zip(&noise)
        .map(|(&p, &n)| {
            let recal = params.gain * p.max(0.0).powf(params.gamma);
            let observed = recal * (params.noise_sigma * n).exp();
            if observed < params.detection_threshold {
                0.0
            } else {
                observed
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LatLonGrid;
    use crate::variables::VariableSet;

    fn world() -> WorldGenerator {
        WorldGenerator::new(LatLonGrid::global(32, 64), VariableSet::era5_like(), 5)
    }

    #[test]
    fn observation_is_nonnegative_and_censored() {
        let w = world();
        let obs = observe_precipitation(&w, 1, ImergLikeParams::default());
        for &v in &obs {
            assert!(v == 0.0 || v >= 0.1, "censoring must zero sub-threshold values, got {v}");
        }
    }

    #[test]
    fn observation_correlates_with_truth_but_differs() {
        let w = world();
        let truth = w.field("prcp", 2);
        let obs = observe_precipitation(&w, 2, ImergLikeParams::default());
        assert_ne!(truth, obs, "sensor must distort");
        // Correlation remains high: same weather, different calibration.
        let n = truth.len() as f64;
        let mt: f64 = truth.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mo: f64 = obs.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mut cov = 0.0;
        let (mut vt, mut vo) = (0.0, 0.0);
        for (&a, &b) in truth.iter().zip(&obs) {
            cov += (a as f64 - mt) * (b as f64 - mo);
            vt += (a as f64 - mt).powi(2);
            vo += (b as f64 - mo).powi(2);
        }
        let corr = cov / (vt.sqrt() * vo.sqrt());
        assert!(corr > 0.7, "obs-truth correlation {corr} should stay high");
        assert!(corr < 0.999, "but not perfect");
    }

    #[test]
    fn deterministic_given_seeds() {
        let w = world();
        let a = observe_precipitation(&w, 3, ImergLikeParams::default());
        let b = observe_precipitation(&w, 3, ImergLikeParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_sensor_seed_changes_noise() {
        let w = world();
        let a = observe_precipitation(&w, 3, ImergLikeParams::default());
        let b = observe_precipitation(&w, 3, ImergLikeParams { sensor_seed: 99, ..Default::default() });
        assert_ne!(a, b);
    }
}
