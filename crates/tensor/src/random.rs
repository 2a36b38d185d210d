//! Deterministic seeded random tensor constructors.
//!
//! Every stochastic component of the reproduction takes an explicit `u64`
//! seed; ChaCha8 gives platform-independent streams so tests can assert
//! bitwise reproducibility.

use crate::pool;
use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, StandardNormal};

/// Standard-normal tensor with the given seed.
pub fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let mut data = pool::alloc_uninit(n);
    for x in data.iter_mut() {
        *x = StandardNormal.sample(&mut rng);
    }
    Tensor::from_vec(shape.to_vec(), data)
}

/// Uniform `[lo, hi)` tensor with the given seed.
pub(crate) fn rand_uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let mut data = pool::alloc_uninit(n);
    for x in data.iter_mut() {
        *x = rng.gen_range(lo..hi);
    }
    Tensor::from_vec(shape.to_vec(), data)
}

/// Kaiming/He-style initialization for a weight of shape `[fan_out, fan_in]`
/// (or conv `[out, in, kh, kw]`): normal with std `sqrt(2 / fan_in)`.
pub fn kaiming(shape: &[usize], seed: u64) -> Tensor {
    let fan_in: usize = shape[1..].iter().product::<usize>().max(1);
    let std = (2.0 / fan_in as f32).sqrt();
    randn(shape, seed).mul_scalar(std)
}

/// Xavier/Glorot uniform initialization for `[fan_out, fan_in]` weights.
pub fn xavier(shape: &[usize], seed: u64) -> Tensor {
    let fan_in: usize = shape[1..].iter().product::<usize>().max(1);
    let fan_out = shape[0];
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rand_uniform(shape, -limit, limit, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = randn(&[4, 4], 42);
        let b = randn(&[4, 4], 42);
        assert_eq!(a.data(), b.data());
        let c = randn(&[4, 4], 43);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let t = randn(&[10_000], 1);
        let mean = t.mean();
        let var = t.map(|x| x * x).mean() - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let t = rand_uniform(&[1000], -2.0, 3.0, 5);
        assert!(t.min_value() >= -2.0);
        assert!(t.max_value() < 3.0);
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let small = kaiming(&[64, 16], 7);
        let big = kaiming(&[64, 1024], 7);
        let var_s = small.map(|x| x * x).mean();
        let var_b = big.map(|x| x * x).mean();
        assert!(var_s > var_b * 10.0, "kaiming variance should shrink with fan_in");
    }
}
