//! 2-D batch normalization.

use super::{Layer, Param};
use crate::Tensor;

/// Channels whose reduction chains run side by side. Each channel keeps its
/// own serial summation order; a group's chains only overlap in the
/// pipeline instead of each waiting on its own add latency.
const CB: usize = 8;

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
    /// Per-channel reduction scratch, `2·C` long: the batch means and
    /// variances in the forward pass, Σg and Σg·x̂ in the backward pass.
    sums: Vec<f32>,
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
            sums: vec![0.0; 2 * channels],
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

/// Elements per block of [`sweep`].
const BLOCK: usize = 8;

/// The planes of sample `ni` for the channel group starting at `c0`. A group
/// narrower than `CB` repeats its last channel in the spare slots, whose
/// results the callers drop.
fn group_planes(x: &[f32], ni: usize, c: usize, c0: usize, plane: usize) -> [&[f32]; CB] {
    let last = c - 1 - c0;
    std::array::from_fn(|w| &x[(ni * c + c0 + w.min(last)) * plane..][..plane])
}

/// Calls `f(w, a, b)` for every element pair `a = xs[w][e]`, `b = ys[w][e]`
/// of each channel `w`'s planes, in ascending element order per channel.
/// The channels take turns in blocks of `BLOCK` contiguous elements, so
/// the callers' per-channel chains overlap in the pipeline while every
/// load stays contiguous.
#[inline(always)]
fn sweep(xs: [&[f32]; CB], ys: [&[f32]; CB], mut f: impl FnMut(usize, f32, f32)) {
    let len = xs[0].len();
    let xb = xs.map(|p| &p[..len].as_chunks::<BLOCK>().0[..len / BLOCK]);
    let yb = ys.map(|p| &p[..len].as_chunks::<BLOCK>().0[..len / BLOCK]);
    for q in 0..len / BLOCK {
        for w in 0..CB {
            for (&a, &b) in xb[w][q].iter().zip(&yb[w][q]) {
                f(w, a, b);
            }
        }
    }
    // The tail runs one channel at a time: its trip count is unknown, so
    // nothing vectorizes it across channels with gathers.
    let tail = len / BLOCK * BLOCK;
    for w in 0..CB {
        for (&a, &b) in xs[w][tail..].iter().zip(&ys[w][tail..]) {
            f(w, a, b);
        }
    }
}

/// Visits the channel groups `[c0, c0 + width)` of `c` channels.
fn for_groups(c: usize, mut f: impl FnMut(usize, usize)) {
    for c0 in (0..c).step_by(CB) {
        f(c0, CB.min(c - c0));
    }
}

/// Batch means and variances of a group's channels, written to
/// `means[c0..]`/`vars[c0..]`. Each channel's chains are the serial ones:
/// every plane sums from −0.0 in element order (as `iter().sum()` does),
/// the mean adds the planes in sample order from +0.0, and the variance
/// adds each squared deviation (a multiply, then an add) in sample and
/// element order from +0.0.
#[allow(clippy::too_many_arguments)]
fn batch_stats(
    x: &[f32],
    n: usize,
    c: usize,
    c0: usize,
    width: usize,
    plane: usize,
    means: &mut [f32],
    vars: &mut [f32],
) {
    let count = (n * plane) as f32;
    let mut mean = [0.0f32; CB];
    for ni in 0..n {
        let mut sum = [-0.0f32; CB];
        let planes = group_planes(x, ni, c, c0, plane);
        sweep(planes, planes, |w, v, _| sum[w] += v);
        for (m, s) in mean.iter_mut().zip(sum) {
            *m += s;
        }
    }
    let mean = mean.map(|m| m / count);
    let mut var = [0.0f32; CB];
    for ni in 0..n {
        let planes = group_planes(x, ni, c, c0, plane);
        sweep(planes, planes, |w, v, _| {
            let d = v - mean[w];
            var[w] += d * d;
        });
    }
    means[c0..c0 + width].copy_from_slice(&mean[..width]);
    for (dst, v) in vars[c0..c0 + width].iter_mut().zip(var) {
        *dst = v / count;
    }
}

/// Σg and Σg·x̂ of a group's channels, written to `sum_g[c0..]` and
/// `sum_gx[c0..]`: each is one chain per channel from +0.0 in sample and
/// element order, the product rounded before the add.
#[allow(clippy::too_many_arguments)]
fn grad_sums(
    g: &[f32],
    xhat: &[f32],
    n: usize,
    c: usize,
    c0: usize,
    width: usize,
    plane: usize,
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
) {
    let mut sg = [0.0f32; CB];
    let mut sgx = [0.0f32; CB];
    for ni in 0..n {
        let (gp, xp) = (group_planes(g, ni, c, c0, plane), group_planes(xhat, ni, c, c0, plane));
        sweep(gp, xp, |w, go, xh| {
            sg[w] += go;
            sgx[w] += go * xh;
        });
    }
    sum_g[c0..c0 + width].copy_from_slice(&sg[..width]);
    sum_gx[c0..c0 + width].copy_from_slice(&sgx[..width]);
}

impl Layer for BatchNorm2d {
    // lint: hot-path
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        let (n, c, h, w) = input.dims4();
        assert_eq!(c, self.channels, "BatchNorm2d expects {} channels, got {c}", self.channels);
        let plane = h * w;
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

        let (means, vars) = self.sums.split_at_mut(c);
        if train {
            let x = input.as_slice();
            for_groups(c, |c0, width| batch_stats(x, n, c, c0, width, plane, means, vars));
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * means[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * vars[ci];
            }
        } else {
            means.copy_from_slice(&self.running_mean);
            vars.copy_from_slice(&self.running_var);
        }
        for ci in 0..c {
            let mean = means[ci];
            let inv_std = 1.0 / (vars[ci] + self.eps).sqrt();
            inv_stds[ci] = inv_std;
            let g = self.gamma.value.as_slice()[ci];
            let b = self.beta.value.as_slice()[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                let src = &input.as_slice()[base..base + plane];
                let xh_dst = &mut xhat.as_mut_slice()[base..base + plane];
                let out_dst = &mut out.as_mut_slice()[base..base + plane];
                for ((&x, xh), o) in src.iter().zip(xh_dst).zip(out_dst) {
                    let v = (x - mean) * inv_std;
                    *xh = v;
                    *o = g * v + b;
                }
            }
        }
    }

    // lint: hot-path
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        // PANIC: Layer contract — backward runs only after forward cached state.
        let (xhat, inv_stds) = self.cache.as_ref().expect("backward before forward");
        let (n, c, h, w) = grad_out.dims4();
        let plane = h * w;
        let count = (n * plane) as f32;
        let (sum_g, sum_gx) = self.sums.split_at_mut(c);
        let (g_all, x_all) = (grad_out.as_slice(), xhat.as_slice());
        for_groups(c, |c0, width| grad_sums(g_all, x_all, n, c, c0, width, plane, sum_g, sum_gx));
        for ci in 0..c {
            self.beta.grad.as_mut_slice()[ci] += sum_g[ci];
            self.gamma.grad.as_mut_slice()[ci] += sum_gx[ci];
        }
        // Standard batch-norm input gradient (batch statistics path) —
        // skipped entirely on the discard path.
        let Some(gi) = grad_in else { return };
        gi.resize(&[n, c, h, w]);
        for ci in 0..c {
            let k = self.gamma.value.as_slice()[ci] * inv_stds[ci];
            let (sg, sgx) = (sum_g[ci], sum_gx[ci]);
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                let dst = &mut gi.as_mut_slice()[base..base + plane];
                for ((d, &go), &xh) in dst.iter_mut().zip(&g_all[base..]).zip(&x_all[base..]) {
                    *d = k * (go - sg / count - xh * sgx / count);
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

    /// The serial per-channel loops the interleaved kernels replaced, kept
    /// verbatim as the bit-exact reference: `(out, x̂, 1/σ)` of a forward
    /// pass, updating `running` = (mean, var) in training mode.
    fn reference_forward(
        x: &Tensor,
        gamma: &[f32],
        beta: &[f32],
        running: (&mut [f32], &mut [f32]),
        train: bool,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (running_mean, running_var) = running;
        let (momentum, eps) = (0.1f32, 1e-5f32);
        let (n, c, h, w) = x.dims4();
        let plane = h * w;
        let count = (n * plane) as f32;
        let input = x.as_slice();
        let (mut out, mut xhat) = (vec![0.0f32; input.len()], vec![0.0f32; input.len()]);
        let mut inv_stds = vec![0.0f32; c];
        for ci in 0..c {
            let (mean, var) = if train {
                let mut mean = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    mean += input[base..base + plane].iter().sum::<f32>();
                }
                mean /= count;
                let mut var = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &v in &input[base..base + plane] {
                        let d = v - mean;
                        var += d * d;
                    }
                }
                var /= count;
                running_mean[ci] = (1.0 - momentum) * running_mean[ci] + momentum * mean;
                running_var[ci] = (1.0 - momentum) * running_var[ci] + momentum * var;
                (mean, var)
            } else {
                (running_mean[ci], running_var[ci])
            };
            let inv_std = 1.0 / (var + eps).sqrt();
            inv_stds[ci] = inv_std;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    let xh = (input[i] - mean) * inv_std;
                    xhat[i] = xh;
                    out[i] = gamma[ci] * xh + beta[ci];
                }
            }
        }
        (out, xhat, inv_stds)
    }

    /// The serial backward loops: `(grad_in, dγ, dβ)`.
    fn reference_backward(
        grad_out: &Tensor,
        xhat: &[f32],
        inv_stds: &[f32],
        gamma: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = grad_out.dims4();
        let plane = h * w;
        let count = (n * plane) as f32;
        let go_all = grad_out.as_slice();
        let mut gi = vec![0.0f32; go_all.len()];
        let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ci in 0..c {
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    sum_g += go_all[i];
                    sum_gx += go_all[i] * xhat[i];
                }
            }
            dbeta[ci] += sum_g;
            dgamma[ci] += sum_gx;
            let k = gamma[ci] * inv_stds[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    gi[i] = k * (go_all[i] - sum_g / count - xhat[i] * sum_gx / count);
                }
            }
        }
        (gi, dgamma, dbeta)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn interleaved_kernels_match_serial_loops_bit_for_bit() {
        for &c in &[1usize, 3, 8, 13, 64] {
            for &hw in &[1usize, 16] {
                let what = format!("{c} channels, {hw}x{hw} planes");
                let shape = [3, c, hw, hw];
                let x = init::uniform(&shape, -2.0, 3.0, 7 + c as u64);
                let grad_out = init::uniform(&shape, -1.0, 1.0, 11 + hw as u64);
                let mut bn = BatchNorm2d::new(c);
                bn.gamma.value = init::uniform(&[c], 0.5, 1.5, 3);
                bn.beta.value = init::uniform(&[c], -0.5, 0.5, 4);
                let gamma = bn.gamma.value.as_slice().to_vec();
                let beta = bn.beta.value.as_slice().to_vec();
                let (mut rmean, mut rvar) = (vec![0.0f32; c], vec![1.0f32; c]);

                let y = bn.forward(&x, true);
                let (out, xhat, inv_stds) =
                    reference_forward(&x, &gamma, &beta, (&mut rmean, &mut rvar), true);
                assert_eq!(bits(y.as_slice()), bits(&out), "train forward, {what}");
                assert_eq!(bits(bn.running_mean()), bits(&rmean), "running mean, {what}");
                assert_eq!(bits(bn.running_var()), bits(&rvar), "running var, {what}");

                // Backward with the input gradient, then the discard path,
                // which must accumulate the same parameter gradients again.
                let (gi_ref, dgamma, dbeta) =
                    reference_backward(&grad_out, &xhat, &inv_stds, &gamma);
                let gi = bn.backward(&grad_out);
                assert_eq!(bits(gi.as_slice()), bits(&gi_ref), "grad_in, {what}");
                assert_eq!(bits(bn.gamma.grad.as_slice()), bits(&dgamma), "dγ, {what}");
                assert_eq!(bits(bn.beta.grad.as_slice()), bits(&dbeta), "dβ, {what}");
                bn.gamma.zero_grad();
                bn.beta.zero_grad();
                bn.backward_into(&grad_out, None);
                assert_eq!(bits(bn.gamma.grad.as_slice()), bits(&dgamma), "discard dγ, {what}");
                assert_eq!(bits(bn.beta.grad.as_slice()), bits(&dbeta), "discard dβ, {what}");

                let y = bn.forward(&x, false);
                let (out, _, _) =
                    reference_forward(&x, &gamma, &beta, (&mut rmean, &mut rvar), false);
                assert_eq!(bits(y.as_slice()), bits(&out), "eval forward, {what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 channels")]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(2);
        let _ = bn.forward(&Tensor::zeros(&[1, 3, 2, 2]), true);
    }
}
