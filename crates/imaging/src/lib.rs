//! # orbit2-imaging
//!
//! Image-processing substrate for the ORBIT-2 reproduction:
//!
//! * [`blur`] — separable Gaussian blur (stage 1 of Canny),
//! * [`gradient`] — Sobel gradients with magnitude/direction,
//! * [`canny`] — full Canny edge detector (blur → gradient → non-maximum
//!   suppression → hysteresis), used to estimate the *feature density* that
//!   drives Reslim's adaptive spatial compression (paper Sec. III-A),
//! * [`quadtree`] — recursive quadrant partitioning over edge density: the
//!   adaptive patching of Fig. 3,
//! * [`tiles`] — tile/halo geometry for TILES (paper Sec. III-B): the grid
//!   of cores and the halo-padded window of each (the crop and stitch that
//!   move data through those windows live in `orbit2::tiling`),
//! * [`pgm`] — tiny PGM/ASCII renderers for the visual figures (Fig. 7(b)).

pub mod blur;
pub mod canny;
pub mod gradient;
pub mod pgm;
pub mod quadtree;
pub mod tiles;
