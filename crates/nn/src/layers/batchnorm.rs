//! 2-D batch normalization.

use super::{Layer, Param};
use crate::Tensor;

/// Per-channel batch normalization over `[N, C, H, W]` tensors.
///
/// Training mode normalizes with batch statistics and updates exponential
/// running averages; evaluation mode uses the running averages. Learnable
/// scale `γ` (init 1) and shift `β` (init 0).
///
/// ```
/// use ganopc_nn::{layers::{BatchNorm2d, Layer}, Tensor};
/// let mut bn = BatchNorm2d::new(3);
/// let y = bn.forward(&Tensor::filled(&[2, 3, 4, 4], 5.0), true);
/// // A constant input normalizes to (numerically) zero.
/// assert!(y.max_abs() < 1e-3);
/// ```
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Cache: normalized input, per-channel 1/σ, input shape.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "batchnorm needs at least one channel");
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::filled(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        }
    }

    /// The running mean estimate (for inspection/serialization).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running variance estimate.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        let (n, c, h, w) = input.dims4();
        assert_eq!(c, self.channels, "BatchNorm2d expects {} channels, got {c}", self.channels);
        let plane = h * w;
        let count = (n * plane) as f32;
        out.resize(&[n, c, h, w]);
        // Reuse the persistent normalized-input / 1/σ cache across steps.
        if self.cache.is_none() {
            // ALLOC: one-time cache init on the first forward; the inner
            // buffers are resized in place on every later step.
            self.cache = Some((Tensor::zeros(&[1]), Vec::new()));
        }
        // PANIC: the cache was unconditionally initialized just above.
        let (xhat, inv_stds) = self.cache.as_mut().expect("cache initialized above");
        xhat.resize(&[n, c, h, w]);
        inv_stds.clear();
        inv_stds.resize(c, 0.0);

        #[allow(clippy::needless_range_loop)]
        for ci in 0..c {
            let (mean, var) = if train {
                let mut mean = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    mean += input.as_slice()[base..base + plane].iter().sum::<f32>();
                }
                mean /= count;
                let mut var = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &v in &input.as_slice()[base..base + plane] {
                        let d = v - mean;
                        var += d * d;
                    }
                }
                var /= count;
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ci], self.running_var[ci])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ci] = inv_std;
            let g = self.gamma.value.as_slice()[ci];
            let b = self.beta.value.as_slice()[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    let xh = (input.as_slice()[i] - mean) * inv_std;
                    xhat.as_mut_slice()[i] = xh;
                    out.as_mut_slice()[i] = g * xh + b;
                }
            }
        }
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, mut grad_in: Option<&mut Tensor>) {
        // PANIC: Layer contract — backward runs only after forward cached state.
        let (xhat, inv_stds) = self.cache.as_ref().expect("backward before forward");
        let (n, c, h, w) = grad_out.dims4();
        let plane = h * w;
        let count = (n * plane) as f32;
        if let Some(gi) = grad_in.as_deref_mut() {
            gi.resize(&[n, c, h, w]);
        }
        #[allow(clippy::needless_range_loop)]
        for ci in 0..c {
            let g = self.gamma.value.as_slice()[ci];
            // Channel-wise sums of gO and gO ⊙ x̂.
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    sum_g += grad_out.as_slice()[i];
                    sum_gx += grad_out.as_slice()[i] * xhat.as_slice()[i];
                }
            }
            self.beta.grad.as_mut_slice()[ci] += sum_g;
            self.gamma.grad.as_mut_slice()[ci] += sum_gx;
            // Standard batch-norm input gradient (batch statistics path) —
            // skipped entirely on the discard path.
            let Some(gi) = grad_in.as_deref_mut() else { continue };
            let k = g * inv_stds[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    let go = grad_out.as_slice()[i];
                    let xh = xhat.as_slice()[i];
                    gi.as_mut_slice()[i] = k * (go - sum_g / count - xh * sum_gx / count);
                }
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn describe(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;
    use crate::init;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let x = init::uniform(&[4, 2, 3, 3], 2.0, 6.0, 17);
        let y = bn.forward(&x, true);
        // Each channel of the output should be ~N(0,1) over the batch.
        let (n, c, h, w) = y.dims4();
        let plane = h * w;
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::filled(&[2, 1, 2, 2], 3.0);
        // Train long enough for running stats to converge toward (3, 0).
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        assert!((bn.running_mean()[0] - 3.0).abs() < 0.1);
        // In eval mode the same constant input maps near zero.
        let y = bn.forward(&x, false);
        assert!(y.max_abs() < 0.2, "eval output {:?}", y.as_slice());
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value = Tensor::from_vec(&[1], vec![2.0]);
        bn.beta.value = Tensor::from_vec(&[1], vec![1.0]);
        let x = init::uniform(&[2, 1, 2, 2], -1.0, 1.0, 5);
        let y = bn.forward(&x, true);
        let mean: f32 = y.mean();
        assert!((mean - 1.0).abs() < 1e-4, "beta should shift mean, got {mean}");
    }

    #[test]
    fn gradients_check_out() {
        let mut bn = BatchNorm2d::new(2);
        let x = init::uniform(&[3, 2, 4, 4], -1.0, 1.0, 21);
        gradcheck::check_input_gradient(&mut bn, &x, 0.05);
        gradcheck::check_param_gradients(&mut bn, &x, 0.05);
    }

    #[test]
    #[should_panic(expected = "expects 2 channels")]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(2);
        let _ = bn.forward(&Tensor::zeros(&[1, 3, 2, 2]), true);
    }
}
