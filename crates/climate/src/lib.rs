//! # orbit2-climate
//!
//! Synthetic climate-data substrate standing in for the paper's ERA5 /
//! PRISM / DAYMET / IMERG datasets (Table I), which we cannot ship.
//!
//! The generator is built so that the *properties that matter for
//! downscaling evaluation* are preserved:
//!
//! * fields are spectral Gaussian random fields with per-variable power-law
//!   slopes (realistic spatial spectra, so Fig. 7(a)-style spectral analysis
//!   is meaningful),
//! * every variable is coupled to a shared topography and to the other
//!   variables through simple physical relations (lapse-rate cooling,
//!   orographic precipitation enhancement, humidity–temperature coupling),
//!   so multi-variable inputs genuinely inform the targets,
//! * coarse inputs are *area-averages* of the fine truth (plus the extra
//!   atmospheric/static channels of Table I), making the coarse→fine task a
//!   real ill-posed inverse problem,
//! * an "IMERG-like" observation variant applies a distribution shift
//!   (multiplicative noise + recalibration) to evaluate generalization the
//!   way the paper's Fig. 8 does (reanalysis-trained, satellite-evaluated).
//!
//! Everything is deterministic given a `u64` seed.

pub mod catalog;
pub mod dataset;
pub mod diagnostics;
pub mod grid;
pub mod imerg;
pub mod normalize;
pub mod synth;
pub mod variables;

pub use dataset::{DownscalingDataset, Split};
pub use grid::LatLonGrid;
pub use normalize::Normalizer;
pub use variables::VariableSet;
