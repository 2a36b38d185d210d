//! # orbit2-fft
//!
//! Fast Fourier transforms built from scratch for the reproduction:
//!
//! * iterative radix-2 Cooley–Tukey for power-of-two lengths,
//! * Bluestein's chirp-z algorithm for arbitrary lengths,
//! * row/column 2-D transforms,
//! * radially-binned power spectra (paper Fig. 7(a)).
//!
//! The synthetic climate generator (`orbit2-climate`) synthesizes Gaussian
//! random fields in spectral space with these transforms, and the metrics
//! crate compares the spectral content of downscaled predictions against
//! ground truth exactly as the paper's spectral analysis does.

pub mod complex;
pub mod fft1;
pub mod fft2;
pub mod spectrum;

pub use fft1::{fft, ifft};
pub use spectrum::radial_power_spectrum;
