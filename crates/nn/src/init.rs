//! Seeded weight initialization.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a standard-normal sample with Box–Muller from a uniform RNG.
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// He (Kaiming) normal initialization: `N(0, √(2/fan_in))` — appropriate for
/// ReLU-family activations (the GAN-OPC encoder/decoder).
///
/// ```
/// use ganopc_nn::init::he_normal;
/// let w = he_normal(&[8, 4, 3, 3], 42);
/// assert_eq!(w.len(), 8 * 4 * 9);
/// ```
pub fn he_normal(shape: &[usize], seed: u64) -> Tensor {
    let fan_in: usize = shape[1..].iter().product::<usize>().max(1);
    let std = (2.0 / fan_in as f32).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..len).map(|_| normal(&mut rng) * std).collect())
}

/// Xavier (Glorot) uniform initialization: `U(±√(6/(fan_in+fan_out)))` —
/// used for the sigmoid output layers.
pub fn xavier_uniform(shape: &[usize], seed: u64) -> Tensor {
    let fan_in: usize = shape[1..].iter().product::<usize>().max(1);
    let fan_out = shape[0].max(1);
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-bound..=bound)).collect())
}

/// Uniform noise in `[lo, hi)` — for test fixtures and smoke inputs.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(hi > lo, "empty uniform range");
    let mut rng = StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(lo..hi)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_statistics() {
        let w = he_normal(&[64, 32, 3, 3], 7);
        let mean = w.mean();
        let var: f32 =
            w.as_slice().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / w.len() as f32;
        let expect = 2.0 / (32.0 * 9.0);
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - expect).abs() / expect < 0.15, "var {var} vs {expect}");
    }

    #[test]
    fn xavier_bounds() {
        let w = xavier_uniform(&[10, 20], 3);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= bound));
        assert!(w.max_abs() > bound * 0.5, "suspiciously small spread");
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(he_normal(&[4, 4], 5), he_normal(&[4, 4], 5));
        assert_ne!(he_normal(&[4, 4], 5), he_normal(&[4, 4], 6));
    }

    #[test]
    fn uniform_range() {
        let u = uniform(&[100], -0.25, 0.25, 9);
        assert!(u.as_slice().iter().all(|&v| (-0.25..0.25).contains(&v)));
    }
}
