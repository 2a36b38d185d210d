//! Paired coarse→fine downscaling samples and train/val/test splits.
//!
//! Each sample at timestep `t` consists of the fine-resolution truth for the
//! output variables and the coarse (area-averaged) multi-channel input — the
//! 4× refinement task of the paper's Table I. Splits follow the paper's
//! convention of splitting along time (38y train / 2y val / 1y test ≈
//! 92.5% / 5% / 2.5%).

use crate::grid::LatLonGrid;
use crate::synth::WorldGenerator;
use crate::variables::VariableSet;
use orbit2_tensor::resize::downsample_area;
use orbit2_tensor::Tensor;

/// Which split a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training partition.
    Train,
    /// Validation partition.
    Val,
    /// Held-out test partition.
    Test,
}

/// One paired sample: coarse input stack and fine target stack.
#[derive(Debug, Clone)]
pub struct DownscalingSample {
    /// Input `[C_in, h, w]` at coarse resolution.
    pub input: Tensor,
    /// Target `[C_out, H, W]` at fine resolution (`H = h * factor`).
    pub target: Tensor,
    /// Timestep index the sample was generated from.
    pub t: u64,
}

/// A deterministic, procedurally-generated downscaling dataset.
pub struct DownscalingDataset {
    world: WorldGenerator,
    /// Spatial refinement factor between input and target.
    pub factor: usize,
    /// Total number of samples (timesteps).
    pub num_samples: usize,
    train_frac: f64,
    val_frac: f64,
}

impl DownscalingDataset {
    /// Build a dataset over `fine_grid` with the given channel layout.
    ///
    /// `factor` must divide the fine grid dimensions.
    pub fn new(fine_grid: LatLonGrid, variables: VariableSet, factor: usize, num_samples: usize, seed: u64) -> Self {
        assert!(factor >= 1);
        assert_eq!(fine_grid.h % factor, 0, "grid height not divisible by factor");
        assert_eq!(fine_grid.w % factor, 0, "grid width not divisible by factor");
        let world = WorldGenerator::new(fine_grid, variables, seed);
        Self { world, factor, num_samples, train_frac: 0.925, val_frac: 0.05 }
    }

    /// The fine-resolution grid.
    pub fn fine_grid(&self) -> &LatLonGrid {
        &self.world.grid
    }

    /// The coarse-resolution (input) grid geometry.
    pub fn coarse_grid(&self) -> LatLonGrid {
        LatLonGrid {
            h: self.world.grid.h / self.factor,
            w: self.world.grid.w / self.factor,
            ..self.world.grid
        }
    }

    /// Channel layout.
    pub fn variables(&self) -> &VariableSet {
        &self.world.variables
    }

    /// Underlying world generator (topography etc.).
    pub fn world(&self) -> &WorldGenerator {
        &self.world
    }

    /// Split membership of sample `i` (time-ordered, like the paper's
    /// by-year split). Every split is guaranteed non-empty once
    /// `num_samples >= 3`.
    fn split_of(&self, i: usize) -> Split {
        let n = self.num_samples;
        let mut val_end = ((n as f64 * (self.train_frac + self.val_frac)).round() as usize).min(n.saturating_sub(1));
        let mut train_end = ((n as f64 * self.train_frac).round() as usize).min(val_end.saturating_sub(1));
        if n >= 3 {
            train_end = train_end.max(1);
            val_end = val_end.max(train_end + 1);
        }
        if i < train_end {
            Split::Train
        } else if i < val_end {
            Split::Val
        } else {
            Split::Test
        }
    }

    /// Indices belonging to a split.
    pub fn indices(&self, split: Split) -> Vec<usize> {
        (0..self.num_samples).filter(|&i| self.split_of(i) == split).collect()
    }

    /// Generate sample `i` (deterministic). Every field is generated once,
    /// through `WorldGenerator::fields`: an input and its output twin
    /// (`tmin_in`, `tmin`) share one.
    pub fn sample(&self, i: usize) -> DownscalingSample {
        assert!(i < self.num_samples, "sample {i} out of range ({})", self.num_samples);
        let t = i as u64;
        let (fh, fw) = (self.world.grid.h, self.world.grid.w);
        let vs = &self.world.variables;
        let names: Vec<&str> = vs.inputs.iter().chain(&vs.outputs).map(|v| v.name.as_str()).collect();
        let mut fields = self.world.fields(&names, t).into_iter();

        let mut input_data = Vec::with_capacity(vs.num_inputs() * (fh / self.factor) * (fw / self.factor));
        for field in fields.by_ref().take(vs.num_inputs()) {
            let coarse = downsample_area(&Tensor::from_vec(vec![1, fh, fw], field), self.factor);
            input_data.extend_from_slice(coarse.data());
        }
        let input = Tensor::from_vec(
            vec![vs.num_inputs(), fh / self.factor, fw / self.factor],
            input_data,
        );

        let mut target_data = Vec::with_capacity(vs.num_outputs() * fh * fw);
        for field in fields {
            target_data.extend(field);
        }
        let target = Tensor::from_vec(vec![vs.num_outputs(), fh, fw], target_data);

        DownscalingSample { input, target, t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DownscalingDataset {
        DownscalingDataset::new(LatLonGrid::conus(32, 64), VariableSet::daymet_like(), 4, 40, 7)
    }

    #[test]
    fn shapes_follow_factor() {
        let ds = tiny();
        let s = ds.sample(0);
        assert_eq!(s.input.shape(), &[7, 8, 16]);
        assert_eq!(s.target.shape(), &[3, 32, 64]);
    }

    #[test]
    fn deterministic_samples() {
        let a = tiny().sample(3);
        let b = tiny().sample(3);
        assert_eq!(a.input.data(), b.input.data());
        assert_eq!(a.target.data(), b.target.data());
    }

    #[test]
    fn coarse_input_is_area_average_of_truth() {
        let ds = tiny();
        let s = ds.sample(1);
        // Input channel "tmin_in" must equal the 4x area average of the
        // target channel "tmin".
        let ci = ds.variables().inputs.iter().position(|v| v.name == "tmin_in").unwrap();
        let co = ds.variables().output_index("tmin").unwrap();
        let coarse = s.input.slice_axis(0, ci, 1);
        let fine = s.target.slice_axis(0, co, 1);
        let expect = downsample_area(&fine, 4);
        coarse.assert_close(&expect, 1e-4);
    }

    #[test]
    fn splits_are_time_ordered_and_cover() {
        let ds = tiny();
        let train = ds.indices(Split::Train);
        let val = ds.indices(Split::Val);
        let test = ds.indices(Split::Test);
        assert_eq!(train.len() + val.len() + test.len(), 40);
        assert!(train.iter().max().unwrap() < val.iter().min().unwrap());
        assert!(val.iter().max().unwrap() < test.iter().min().unwrap());
        assert!(train.len() > 30);
        assert!(!val.is_empty());
        assert!(!test.is_empty());
    }

    #[test]
    fn coarse_grid_geometry() {
        let ds = tiny();
        let cg = ds.coarse_grid();
        assert_eq!((cg.h, cg.w), (8, 16));
        assert_eq!(LatLonGrid { h: 32, w: 64, ..cg }, *ds.fine_grid());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sample_panics() {
        tiny().sample(40);
    }
}
