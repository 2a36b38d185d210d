//! Spectral Gaussian-random-field synthesis and the coupled multi-variable
//! world generator.
//!
//! Real climate fields have power-law spatial spectra; we synthesize fields
//! with a prescribed slope by shaping white noise in Fourier space
//! (`|F(k)| ∝ k^{-slope/2}`), then couple variables through a shared
//! topography and a shared per-timestep "weather" field so that the
//! multi-channel inputs genuinely inform the downscaling targets.

use crate::grid::LatLonGrid;
use crate::variables::{Variable, VariableKind, VariableSet};
use orbit2_fft::complex::Complex;
use orbit2_fft::fft2::{fft2, ifft2};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// One Gaussian random field a truth field is built from: with the grid,
/// its slope and seed determine every bit of it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Grf {
    slope: f64,
    seed: u64,
}

/// Parameters of one Gaussian random field.
#[derive(Debug, Clone, Copy)]
pub struct GrfSpec {
    /// Power-spectrum slope: `P(k) ∝ k^{-slope}`. Larger = smoother field.
    pub slope: f64,
}

/// Generate a zero-mean, unit-variance random field with power-law spectrum.
pub fn gaussian_random_field(h: usize, w: usize, spec: GrfSpec, seed: u64) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // White noise -> spectral shaping preserves Hermitian symmetry because
    // the filter depends only on |k|.
    let mut grid: Vec<Complex> = (0..h * w)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
        .collect();
    fft2(&mut grid, h, w);
    for y in 0..h {
        let ky = if y <= h / 2 { y as f64 } else { y as f64 - h as f64 };
        for x in 0..w {
            let kx = if x <= w / 2 { x as f64 } else { x as f64 - w as f64 };
            let k = (ky * ky + kx * kx).sqrt();
            let amp = if k == 0.0 { 0.0 } else { k.powf(-spec.slope / 2.0) };
            grid[y * w + x] = grid[y * w + x].scale(amp);
        }
    }
    ifft2(&mut grid, h, w);
    let mut field: Vec<f32> = grid.iter().map(|c| c.re as f32).collect();
    normalize_unit(&mut field);
    field
}

fn normalize_unit(field: &mut [f32]) {
    let n = field.len() as f64;
    let mean: f64 = field.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var: f64 = field.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
    let inv_std = if var > 0.0 { 1.0 / var.sqrt() } else { 1.0 };
    for v in field.iter_mut() {
        *v = ((*v as f64 - mean) * inv_std) as f32;
    }
}

/// Numerically-stable softplus, used to keep precipitation nonnegative.
fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        0.0
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Deterministic per-name sub-seed.
fn name_seed(base: u64, name: &str, t: u64) -> u64 {
    // FNV-1a over the name, mixed with the timestep.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ base.rotate_left(17) ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The synthetic world: fixed geography plus a stream of coupled weather
/// states, one per timestep ("hourly/daily sample" in the paper's terms).
pub struct WorldGenerator {
    /// Fine-resolution grid on which truth fields are generated.
    pub grid: LatLonGrid,
    /// Channel layout.
    pub variables: VariableSet,
    seed: u64,
    /// Topography in km, fixed for the world.
    topography_km: Vec<f32>,
    /// Land mask in [0,1].
    land_mask: Vec<f32>,
}

impl WorldGenerator {
    /// Create a world on `grid` with the given channel layout and seed.
    pub fn new(grid: LatLonGrid, variables: VariableSet, seed: u64) -> Self {
        let (h, w) = (grid.h, grid.w);
        // Ridged topography: |smooth GRF| gives mountain ranges; a second
        // smooth component adds continental-scale tilt.
        let ridges = gaussian_random_field(h, w, GrfSpec { slope: 3.4 }, name_seed(seed, "topo_ridges", 0));
        let broad = gaussian_random_field(h, w, GrfSpec { slope: 4.0 }, name_seed(seed, "topo_broad", 0));
        let topography_km: Vec<f32> = ridges
            .iter()
            .zip(&broad)
            .map(|(&r, &b)| (1.2 * r.abs() + 0.4 * b).max(0.0))
            .collect();
        let continents = gaussian_random_field(h, w, GrfSpec { slope: 4.2 }, name_seed(seed, "land", 0));
        let land_mask: Vec<f32> = continents.iter().map(|&c| if c > -0.2 { 1.0 } else { 0.0 }).collect();
        Self { grid, variables, seed, topography_km, land_mask }
    }

    /// Shared synoptic "weather" field for timestep `t` (unit variance).
    fn weather(&self, t: u64) -> Grf {
        Grf { slope: 3.0, seed: name_seed(self.seed, "weather", t) }
    }

    /// Shared moisture field for timestep `t` (rougher than temperature).
    fn moisture(&self, t: u64) -> Grf {
        Grf { slope: 2.3, seed: name_seed(self.seed, "moisture", t) }
    }

    /// Seasonal temperature anomaly for timestep `t` (days), in Kelvin.
    fn seasonal(&self, t: u64) -> f32 {
        10.0 * (2.0 * std::f32::consts::PI * (t % 365) as f32 / 365.0).sin()
    }

    /// Generate the fine-resolution truth field for a canonical variable
    /// name at timestep `t`. Input channels suffixed `_in` resolve to the
    /// same canonical field as their output counterpart, which is what makes
    /// the coarse input an honest (area-averaged) observation of the truth.
    pub fn field(&self, name: &str, t: u64) -> Vec<f32> {
        self.fields(&[name], t).swap_remove(0)
    }

    /// [`WorldGenerator::field`] for each of `names` at timestep `t`, in
    /// order, bit for bit. Each distinct canonical field is composed once
    /// (`tmin_in` and `tmin` are one field), and each random field they are
    /// built from — a shared weather or moisture base, each field's own
    /// detail — is generated once, the distinct ones in parallel.
    pub(crate) fn fields(&self, names: &[&str], t: u64) -> Vec<Vec<f32>> {
        let canonical: Vec<&str> = names.iter().map(|n| n.strip_suffix("_in").unwrap_or(n)).collect();
        let mut distinct: Vec<&str> = Vec::new();
        let mut grfs: Vec<Grf> = Vec::new();
        for &c in &canonical {
            if !distinct.contains(&c) {
                distinct.push(c);
                for grf in self.sources(c, t) {
                    if !grfs.contains(&grf) {
                        grfs.push(grf);
                    }
                }
            }
        }
        let (h, w) = (self.grid.h, self.grid.w);
        let mut composed: Vec<Option<Vec<f32>>> = {
            let generated: Vec<Vec<f32>> =
                grfs.par_iter().map(|g| gaussian_random_field(h, w, GrfSpec { slope: g.slope }, g.seed)).collect();
            let generated_for = |g: &Grf| generated[grfs.iter().position(|x| x == g).expect("generated above")].as_slice();
            distinct
                .iter()
                .map(|&c| {
                    let srcs: Vec<&[f32]> = self.sources(c, t).iter().map(generated_for).collect();
                    Some(self.compose(c, t, &srcs))
                })
                .collect()
        };
        // The last name that needs a field takes it; earlier ones copy it.
        canonical
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let field = &mut composed[distinct.iter().position(|d| d == c).expect("composed above")];
                let field = if canonical[k + 1..].contains(c) { field.clone() } else { field.take() };
                field.expect("a field is taken by its last name only")
            })
            .collect()
    }

    /// The random fields canonical field `canonical` is built from at `t`,
    /// in the order [`WorldGenerator::compose`] reads them: the shared base,
    /// then the field's own detail.
    fn sources(&self, canonical: &str, t: u64) -> Vec<Grf> {
        match canonical {
            "topography" | "land_mask" | "lat_coord" | "lon_coord" => Vec::new(),
            "soil_type" => vec![Grf { slope: 2.8, seed: name_seed(self.seed, "soil", 0) }],
            other => {
                let shared = if other == "prcp" || other.starts_with('q') { self.moisture(t) } else { self.weather(t) };
                let local = Grf { slope: self.lookup(other).spectral_slope, seed: name_seed(self.seed, other, t) };
                vec![shared, local]
            }
        }
    }

    /// Canonical field `canonical` at `t` from its generated
    /// [`WorldGenerator::sources`], `srcs`.
    fn compose(&self, canonical: &str, t: u64, srcs: &[&[f32]]) -> Vec<f32> {
        let (h, w) = (self.grid.h, self.grid.w);
        match canonical {
            "topography" => self.topography_km.clone(),
            "land_mask" => self.land_mask.clone(),
            "soil_type" => srcs[0].to_vec(),
            "lat_coord" => {
                let mut out = Vec::with_capacity(h * w);
                for i in 0..h {
                    let v = (self.grid.lat(i) / 90.0) as f32;
                    out.extend(std::iter::repeat_n(v, w));
                }
                out
            }
            "lon_coord" => {
                let row: Vec<f32> = (0..w).map(|j| (self.grid.lon(j) / 180.0) as f32).collect();
                let mut out = Vec::with_capacity(h * w);
                for _ in 0..h {
                    out.extend_from_slice(&row);
                }
                out
            }
            "t2m" | "tmin" | "tmax" => self.temperature_family(canonical, t, srcs[0], srcs[1]),
            "prcp" => self.precipitation(srcs[0], srcs[1]),
            other => self.generic_variable(other, t, srcs[0], srcs[1]),
        }
    }

    /// Temperature family: shared base (weather + lapse-rate + season) with
    /// per-member offsets and local detail.
    fn temperature_family(&self, which: &str, t: u64, weather: &[f32], local: &[f32]) -> Vec<f32> {
        let spec = self.lookup(which);
        let season = self.seasonal(t);
        let offset = match which {
            "tmin" => -5.0,
            "tmax" => 5.0,
            _ => 0.0,
        };
        // Weighting note: most fine-scale variance is tied to the *fixed*
        // geography (lapse-rate cooling over the topography), which a
        // downscaler can learn across samples; the residual `local` noise
        // is kept small because it is irreducible from coarse inputs.
        weather
            .iter()
            .zip(local)
            .zip(&self.topography_km)
            .map(|((&wx, &lx), &topo)| {
                spec.mean + offset + season + spec.topo_coupling * topo + spec.sigma * (0.7 * wx + 0.18 * lx)
            })
            .collect()
    }

    /// Precipitation: softplus of moisture + orographic enhancement, giving
    /// a skewed, nonnegative field with sharp wet/dry boundaries.
    fn precipitation(&self, moisture: &[f32], local: &[f32]) -> Vec<f32> {
        let spec = self.lookup("prcp");
        moisture
            .iter()
            .zip(local)
            .zip(&self.topography_km)
            .map(|((&m, &l), &topo)| {
                3.0 * softplus(1.2 * m + 0.3 * l + spec.topo_coupling * topo - 1.0)
            })
            .collect()
    }

    /// Any other (atmospheric/surface) variable: mean + topo coupling +
    /// weather/moisture mixture by kind.
    fn generic_variable(&self, name: &str, t: u64, shared: &[f32], local: &[f32]) -> Vec<f32> {
        let spec = self.lookup(name);
        let season = if spec.kind == VariableKind::Atmospheric && name.starts_with('t') {
            self.seasonal(t)
        } else {
            0.0
        };
        shared
            .iter()
            .zip(local)
            .zip(&self.topography_km)
            .map(|((&s, &l), &topo)| {
                spec.mean + season + spec.topo_coupling * topo + spec.sigma * (0.5 * s + 0.6 * l)
            })
            .collect()
    }

    fn lookup(&self, canonical: &str) -> Variable {
        let hit = self
            .variables
            .inputs
            .iter()
            .chain(&self.variables.outputs)
            .find(|v| v.name.strip_suffix("_in").unwrap_or(&v.name) == canonical);
        match hit {
            Some(v) => v.clone(),
            // Fall back to a neutral spec so the generator is total.
            None => Variable {
                name: canonical.into(),
                kind: VariableKind::Surface,
                spectral_slope: 2.8,
                sigma: 1.0,
                mean: 0.0,
                topo_coupling: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> WorldGenerator {
        WorldGenerator::new(LatLonGrid::conus(32, 64), VariableSet::era5_like(), 42)
    }

    #[test]
    fn grf_is_normalized_and_deterministic() {
        let a = gaussian_random_field(32, 32, GrfSpec { slope: 3.0 }, 7);
        let b = gaussian_random_field(32, 32, GrfSpec { slope: 3.0 }, 7);
        assert_eq!(a, b);
        let mean: f32 = a.iter().sum::<f32>() / a.len() as f32;
        let var: f32 = a.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn higher_slope_is_smoother() {
        // Smoothness proxy: mean squared difference of horizontal neighbours.
        let rough = gaussian_random_field(64, 64, GrfSpec { slope: 1.5 }, 3);
        let smooth = gaussian_random_field(64, 64, GrfSpec { slope: 4.0 }, 3);
        let roughness = |f: &[f32]| -> f32 {
            let mut s = 0.0;
            for y in 0..64 {
                for x in 0..63 {
                    s += (f[y * 64 + x + 1] - f[y * 64 + x]).powi(2);
                }
            }
            s
        };
        assert!(roughness(&smooth) < roughness(&rough) * 0.5);
    }

    #[test]
    fn grf_spectrum_follows_power_law() {
        let f = gaussian_random_field(128, 128, GrfSpec { slope: 3.0 }, 11);
        let ps = orbit2_fft::radial_power_spectrum(&f, 128, 128);
        // Fit log-log slope over mid-range wavenumbers.
        let (mut sx, mut sy, mut sxx, mut sxy, mut n) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for k in 4..40 {
            let x = (k as f64).ln();
            let y = ps.power[k].max(1e-30).ln();
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
            n += 1.0;
        }
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!((slope + 3.0).abs() < 0.6, "measured spectral slope {slope}, want ~-3");
    }

    #[test]
    fn topography_nonnegative_and_deterministic() {
        let w1 = world();
        let w2 = world();
        assert_eq!(w1.topography_km, w2.topography_km);
        assert!(w1.topography_km.iter().all(|&t| t >= 0.0));
        assert!(w1.topography_km.iter().any(|&t| t > 0.5), "should have mountains");
    }

    #[test]
    fn temperature_cools_on_mountains() {
        let wld = world();
        let t2m = wld.field("t2m", 10);
        let topo = &wld.topography_km;
        // Correlation between topography and temperature must be negative.
        let n = t2m.len() as f64;
        let mt: f64 = t2m.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mo: f64 = topo.iter().map(|&v| v as f64).sum::<f64>() / n;
        let mut cov = 0.0;
        let (mut vt, mut vo) = (0.0, 0.0);
        for (&a, &b) in t2m.iter().zip(topo) {
            cov += (a as f64 - mt) * (b as f64 - mo);
            vt += (a as f64 - mt).powi(2);
            vo += (b as f64 - mo).powi(2);
        }
        let corr = cov / (vt.sqrt() * vo.sqrt());
        assert!(corr < -0.3, "temperature-topography correlation {corr} should be negative");
    }

    #[test]
    fn tmin_below_tmax() {
        let wld = world();
        let tmin = wld.field("tmin", 5);
        let tmax = wld.field("tmax", 5);
        let mean_min: f32 = tmin.iter().sum::<f32>() / tmin.len() as f32;
        let mean_max: f32 = tmax.iter().sum::<f32>() / tmax.len() as f32;
        assert!(mean_min < mean_max);
    }

    #[test]
    fn precipitation_nonnegative_and_skewed() {
        let wld = world();
        let p = wld.field("prcp", 3);
        assert!(p.iter().all(|&v| v >= 0.0));
        let mean: f32 = p.iter().sum::<f32>() / p.len() as f32;
        let median = {
            let mut s = p;
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(mean > median, "precip should be right-skewed (mean {mean} > median {median})");
    }

    #[test]
    fn input_channel_resolves_to_canonical_field() {
        let wld = world();
        assert_eq!(wld.field("tmin_in", 9), wld.field("tmin", 9));
    }

    #[test]
    fn different_timesteps_differ() {
        let wld = world();
        assert_ne!(wld.field("t2m", 1), wld.field("t2m", 2));
    }

    #[test]
    fn seasonal_cycle_moves_temperature() {
        let wld = world();
        let winter = wld.field("t2m", 0);
        let summer = wld.field("t2m", 91); // ~ quarter year later, peak of sin
        let mw: f32 = winter.iter().sum::<f32>() / winter.len() as f32;
        let ms: f32 = summer.iter().sum::<f32>() / summer.len() as f32;
        assert!((ms - mw).abs() > 3.0, "seasonal amplitude should show up");
    }

    #[test]
    fn coordinates_fields_are_ramps() {
        let wld = world();
        let lat = wld.field("lat_coord", 0);
        let lon = wld.field("lon_coord", 0);
        let w = wld.grid.w;
        assert!(lat[0] > lat[(wld.grid.h - 1) * w], "latitude decreases southward");
        assert!(lon[0] < lon[w - 1], "longitude increases eastward");
    }
}
