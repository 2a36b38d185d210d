//! Mixed-resolution pretraining corpora.
//!
//! The paper pretrains one model on *several* datasets with different grid
//! sizes (Table I: ERA5 622→156 km on a 32x64 grid and 112→28 km on a
//! 180x360 grid, plus the US products) — "a single model to generalize
//! across diverse datasets with varying resolutions" is the stated
//! foundation-model requirement that rules out Swin-style hierarchies.
//! [`MixedDataset`] interleaves samples from multiple member datasets with
//! a shared channel layout, so one training loop sees all resolutions.

use crate::dataset::{DownscalingDataset, DownscalingSample};

/// Several downscaling datasets (same channel layout, same refinement
/// factor, different grids) presented as one interleaved corpus.
pub struct MixedDataset {
    members: Vec<DownscalingDataset>,
}

impl MixedDataset {
    /// Combine member datasets. All members must share the channel layout
    /// and refinement factor (the architecture contract).
    pub fn new(members: Vec<DownscalingDataset>) -> Self {
        assert!(!members.is_empty(), "no member datasets");
        let first = &members[0];
        for m in &members[1..] {
            assert_eq!(
                m.variables().num_inputs(),
                first.variables().num_inputs(),
                "members must share the input channel layout"
            );
            assert_eq!(m.variables().num_outputs(), first.variables().num_outputs());
            assert_eq!(m.factor, first.factor, "members must share the refinement factor");
        }
        Self { members }
    }

    /// Member datasets.
    pub fn members(&self) -> &[DownscalingDataset] {
        &self.members
    }

    /// Total number of samples across members.
    fn num_samples(&self) -> usize {
        self.members.iter().map(|m| m.num_samples).sum()
    }

    /// Global sample `i`, interleaving members round-robin so a training
    /// pass alternates resolutions (member = i mod k).
    pub fn sample(&self, i: usize) -> (usize, DownscalingSample) {
        assert!(i < self.num_samples(), "sample {i} out of range");
        let k = self.members.len();
        let member = i % k;
        // Round-robin position within the member, wrapping over its length.
        let within = (i / k) % self.members[member].num_samples;
        (member, self.members[member].sample(within))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LatLonGrid;
    use crate::variables::VariableSet;

    fn mixed() -> MixedDataset {
        MixedDataset::new(vec![
            // Coarse global pair (622 -> 156 analog).
            DownscalingDataset::new(LatLonGrid::global(16, 32), VariableSet::era5_like(), 4, 10, 1),
            // Finer global pair (112 -> 28 analog).
            DownscalingDataset::new(LatLonGrid::global(32, 64), VariableSet::era5_like(), 4, 10, 2),
        ])
    }

    #[test]
    fn interleaves_members_round_robin() {
        let m = mixed();
        assert_eq!(m.num_samples(), 20);
        let (m0, s0) = m.sample(0);
        let (m1, s1) = m.sample(1);
        assert_eq!(m0, 0);
        assert_eq!(m1, 1);
        // Different (fine) grid sizes per member.
        assert_eq!(s0.target.shape()[1], 16);
        assert_eq!(s1.target.shape()[1], 32);
    }

    #[test]
    fn shared_channel_layout_enforced() {
        let a = DownscalingDataset::new(LatLonGrid::global(16, 32), VariableSet::era5_like(), 4, 4, 1);
        let b = DownscalingDataset::new(LatLonGrid::conus(16, 32), VariableSet::daymet_like(), 4, 4, 1);
        let result = std::panic::catch_unwind(|| MixedDataset::new(vec![a, b]));
        assert!(result.is_err(), "mismatched channel layouts must be rejected");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        mixed().sample(20);
    }
}
