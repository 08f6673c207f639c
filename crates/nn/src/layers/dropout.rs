//! Dropout regularization.

use super::{Layer, Param};
use crate::Tensor;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so evaluation
/// mode is a pass-through. The mask sequence is deterministic in the seed
/// (xorshift), keeping training runs reproducible.
///
/// ```
/// use ganopc_nn::{layers::{Dropout, Layer}, Tensor};
/// let mut d = Dropout::new(0.5, 1);
/// let x = Tensor::filled(&[1, 64], 1.0);
/// let eval = d.forward(&x, false);
/// assert_eq!(eval, x); // inference is identity
/// ```
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    state: u64,
    /// Persistent mask buffer, reused across steps; only meaningful while
    /// `mask_active` is set (training forward with `p > 0`).
    mask: Vec<f32>,
    mask_active: bool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability {p} out of [0,1)");
        Dropout { p, state: seed | 1, mask: Vec::new(), mask_active: false }
    }

    /// Regenerates the persistent mask for `len` activations (one RNG draw
    /// per element, same sequence as always).
    fn fill_mask(&mut self, len: usize) {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.mask.clear();
        self.mask.reserve(len);
        for _ in 0..len {
            let m = if self.next_uniform() < self.p { 0.0 } else { scale };
            self.mask.push(m);
        }
        self.mask_active = true;
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    fn next_uniform(&mut self) -> f32 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D)) >> 40) as f32 / (1u64 << 24) as f32
    }
}

impl Layer for Dropout {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        if !train || self.p == 0.0 {
            self.mask_active = false;
            out.copy_from(input);
            return;
        }
        self.fill_mask(input.len());
        out.resize(input.shape());
        for ((d, &v), &m) in out.as_mut_slice().iter_mut().zip(input.as_slice()).zip(&self.mask) {
            *d = v * m;
        }
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let Some(gi) = grad_in else { return };
        if !self.mask_active {
            gi.copy_from(grad_out);
            return;
        }
        assert_eq!(self.mask.len(), grad_out.len(), "dropout grad shape mismatch");
        gi.resize(grad_out.shape());
        for ((d, &g), &m) in gi.as_mut_slice().iter_mut().zip(grad_out.as_slice()).zip(&self.mask) {
            *d = g * m;
        }
    }

    // lint: hot-path
    fn forward_inplace(&mut self, x: &mut Tensor, train: bool) -> bool {
        if !train || self.p == 0.0 {
            self.mask_active = false;
            return true;
        }
        self.fill_mask(x.len());
        for (v, &m) in x.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        true
    }

    // lint: hot-path
    fn backward_inplace(&mut self, g: &mut Tensor) -> bool {
        if !self.mask_active {
            return true;
        }
        assert_eq!(self.mask.len(), g.len(), "dropout grad shape mismatch");
        for (v, &m) in g.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        true
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!("Dropout({})", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.7, 3);
        let x = crate::init::uniform(&[2, 8], -1.0, 1.0, 1);
        assert_eq!(d.forward(&x, false), x);
        // Backward after eval forward passes gradients through unchanged.
        let g = Tensor::filled(&[2, 8], 2.0);
        assert_eq!(d.backward(&g), g);
    }

    #[test]
    fn training_drops_roughly_p_fraction() {
        let mut d = Dropout::new(0.5, 9);
        let x = Tensor::filled(&[1, 10_000], 1.0);
        let y = d.forward(&x, true);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "dropped fraction {frac}");
        // Survivors are scaled by 1/keep.
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expectation preserved.
        assert!((y.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::filled(&[1, 64], 1.0);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::filled(&[1, 64], 1.0));
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0, "mask mismatch between fwd and bwd");
        }
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 4);
        let x = crate::init::uniform(&[4, 4], -1.0, 1.0, 8);
        assert_eq!(d.forward(&x, true), x);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn rejects_certain_drop() {
        let _ = Dropout::new(1.0, 0);
    }
}
