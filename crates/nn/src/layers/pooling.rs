//! Spatial pooling layers.

use super::{conv_out_size, Layer, Param};
use crate::Tensor;

/// Average pooling over `[N, C, H, W]` tensors with square windows.
///
/// The paper's preprocessing applies 8×8 average pooling to 2048-px clips
/// before the networks; inside a network this layer provides the same
/// operation differentiably.
///
/// ```
/// use ganopc_nn::{layers::{AvgPool2d, Layer}, Tensor};
/// let mut pool = AvgPool2d::new(2);
/// let y = pool.forward(&Tensor::filled(&[1, 1, 4, 4], 3.0), true);
/// assert_eq!(y.shape(), &[1, 1, 2, 2]);
/// assert!(y.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
/// ```
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    cache_in_shape: Option<(usize, usize, usize, usize)>,
}

impl AvgPool2d {
    /// Creates a non-overlapping `k × k` average pool (stride = k).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        AvgPool2d { k, cache_in_shape: None }
    }
}

impl Layer for AvgPool2d {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, _train: bool) {
        let (n, c, h, w) = input.dims4();
        let oh = conv_out_size(h, self.k, self.k, 0);
        let ow = conv_out_size(w, self.k, self.k, 0);
        let norm = 1.0 / (self.k * self.k) as f32;
        out.resize(&[n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                let src = &input.as_slice()[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let dst_base = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for dy in 0..self.k {
                            let row = (oy * self.k + dy) * w + ox * self.k;
                            for dx in 0..self.k {
                                acc += src[row + dx];
                            }
                        }
                        out.as_mut_slice()[dst_base + oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
        self.cache_in_shape = Some((n, c, h, w));
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        // PANIC: Layer contract — backward runs only after forward cached state.
        let (n, c, h, w) = self.cache_in_shape.expect("backward before forward");
        // No parameters, so the discard path has no work at all.
        let Some(grad_in) = grad_in else { return };
        let (_, _, oh, ow) = grad_out.dims4();
        let norm = 1.0 / (self.k * self.k) as f32;
        grad_in.resize(&[n, c, h, w]);
        grad_in.as_mut_slice().fill(0.0);
        for ni in 0..n {
            for ci in 0..c {
                let src =
                    &grad_out.as_slice()[(ni * c + ci) * oh * ow..(ni * c + ci + 1) * oh * ow];
                let dst =
                    &mut grad_in.as_mut_slice()[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = src[oy * ow + ox] * norm;
                        for dy in 0..self.k {
                            let row = (oy * self.k + dy) * w + ox * self.k;
                            for dx in 0..self.k {
                                dst[row + dx] += g;
                            }
                        }
                    }
                }
            }
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn describe(&self) -> String {
        format!("AvgPool2d({0}x{0})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;
    use crate::init;

    #[test]
    fn averages_blocks() {
        let mut pool = AvgPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(&[1, 1, 2, 4], vec![
            1.0, 3.0, 0.0, 8.0,
            5.0, 7.0, 4.0, 0.0,
        ]);
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 3.0]);
    }

    #[test]
    fn preserves_mean() {
        let mut pool = AvgPool2d::new(4);
        let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, 6);
        let y = pool.forward(&x, true);
        assert!((y.mean() - x.mean()).abs() < 1e-5);
    }

    #[test]
    fn gradients_check_out() {
        let mut pool = AvgPool2d::new(2);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, 7);
        gradcheck::check_input_gradient(&mut pool, &x, 0.02);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut pool = AvgPool2d::new(2);
        let _ = pool.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
