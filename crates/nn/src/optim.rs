//! The optimizer.
//!
//! [`Sgd`] walks a network's parameters in the stable
//! [`Sequential::visit_params`] order and keeps per-parameter state indexed
//! by that order, so it must always be used with the same network it was
//! first stepped on.
//!
//! [`Sequential::visit_params`]: crate::layers::Sequential::visit_params

use crate::layers::Sequential;
use crate::{guard, Tensor};

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v − λ·g ; w ← w + v` — with `μ = 0`, plain mini-batch SGD, which
/// is exactly the paper's update rule `W ← W − (λ/m)·ΔW` (Algorithms 1–2)
/// when the accumulated gradient is pre-divided by the mini-batch size.
///
/// ```
/// use ganopc_nn::{layers::{Linear, Sequential}, optim::Sgd, Tensor};
/// let mut net = Sequential::new();
/// net.push(Linear::new(2, 1, 0));
/// let mut opt = Sgd::new(0.1, 0.9);
/// let x = Tensor::filled(&[1, 2], 1.0);
/// let y = net.forward(&x, true);
/// net.backward(&Tensor::filled(y.shape(), 1.0));
/// opt.step(&mut net);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0` and `0 <= momentum < 1`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum {momentum} out of [0,1)");
        Sgd { lr, momentum, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Momentum coefficient μ.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Updates the learning rate (for schedules).
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0`.
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Snapshot of the per-parameter velocity buffers, in
    /// [`Sequential::visit_params`] order. Empty until the first
    /// [`Sgd::step`].
    pub fn export_state(&self) -> Vec<Tensor> {
        self.velocity.clone()
    }

    /// Restores a velocity snapshot produced by [`Sgd::export_state`].
    ///
    /// Together with re-imported network weights this makes a resumed
    /// optimizer bit-identical to the one that was checkpointed. Shapes
    /// are re-validated against the network on the next [`Sgd::step`].
    pub fn import_state(&mut self, velocity: Vec<Tensor>) {
        self.velocity = velocity;
    }

    /// Applies one update using the gradients currently accumulated in
    /// `net`; gradients are left untouched (callers zero them per batch).
    pub fn step(&mut self, net: &mut Sequential) {
        let mut idx = 0usize;
        let (lr, mu) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        net.visit_params(&mut |p| {
            if velocity.len() == idx {
                velocity.push(Tensor::zeros(p.value.shape()));
            }
            let v = &mut velocity[idx];
            assert_eq!(
                v.shape(),
                p.value.shape(),
                "optimizer state mismatch: was this optimizer used with another network?"
            );
            guard::check_finite_slice("sgd gradient", p.grad.as_slice());
            for ((vi, &gi), wi) in
                v.as_mut_slice().iter_mut().zip(p.grad.as_slice()).zip(p.value.as_mut_slice())
            {
                *vi = mu * *vi - lr * gi;
                *wi += *vi;
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::loss::sum_squared_error_acc_into;
    use crate::{init, Tensor};

    /// Mean squared error and its gradient `2(pred − y)/n`, from the
    /// trainer's summed-error kernel at scale `1/n`. Accumulating into
    /// `-0.0` (the additive identity) leaves each element exactly
    /// `2(pred − y)·(1/n)`, which equals `2(pred − y)/n` for the
    /// power-of-two `n` used here.
    fn mean_sq_error(pred: &Tensor, y: &Tensor) -> (f64, Tensor) {
        let n = pred.len();
        let mut grad = Tensor::filled(pred.shape(), -0.0);
        let sum = sum_squared_error_acc_into(pred, y, 1.0 / n as f32, &mut grad);
        (sum / n as f64, grad)
    }

    /// Trains y = 2x₀ − x₁ + 0.5 on a single linear layer; the optimizer
    /// must drive the loss down by orders of magnitude.
    fn fit_linear(step: &mut dyn FnMut(&mut Sequential)) -> f64 {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 1, 7));
        let x = init::uniform(&[32, 2], -1.0, 1.0, 3);
        let y = Tensor::from_vec(
            &[32, 1],
            x.as_slice().chunks_exact(2).map(|c| 2.0 * c[0] - c[1] + 0.5).collect(),
        );
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let pred = net.forward(&x, true);
            let (loss, grad) = mean_sq_error(&pred, &y);
            net.zero_grads();
            net.backward(&grad);
            step(&mut net);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_fits_linear_regression() {
        let mut opt = Sgd::new(0.2, 0.0);
        let loss = fit_linear(&mut |net| opt.step(net));
        assert!(loss < 1e-4, "sgd stalled at {loss}");
    }

    #[test]
    fn momentum_accelerates() {
        let mut plain = Sgd::new(0.05, 0.0);
        let slow = fit_linear(&mut |net| plain.step(net));
        let mut heavy = Sgd::new(0.05, 0.9);
        let fast = fit_linear(&mut |net| heavy.step(net));
        assert!(fast < slow, "momentum {fast} vs plain {slow}");
    }

    #[test]
    fn step_does_not_clear_grads() {
        let mut net = Sequential::new();
        net.push(Linear::new(1, 1, 0));
        let y = net.forward(&Tensor::filled(&[1, 1], 1.0), true);
        net.backward(&Tensor::filled(y.shape(), 1.0));
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut net);
        let mut any = false;
        net.visit_params(&mut |p| any |= p.grad.max_abs() > 0.0);
        assert!(any, "step must not clear gradients");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite sgd gradient"))]
    fn nan_gradient_trips_optimizer_guard() {
        let mut net = Sequential::new();
        net.push(Linear::new(1, 1, 0));
        let y = net.forward(&Tensor::filled(&[1, 1], 1.0), true);
        net.backward(&Tensor::filled(y.shape(), 1.0));
        net.visit_params(&mut |p| p.grad.as_mut_slice()[0] = f32::NAN);
        Sgd::new(0.1, 0.0).step(&mut net);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.0);
    }

    /// Run `steps` SGD steps on a fixed problem, optionally checkpointing
    /// the optimizer (and weights) at step `split` and resuming into fresh
    /// objects; returns the final weights.
    fn sgd_run(steps: usize, split: Option<usize>, transfer_velocity: bool) -> Vec<Tensor> {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 1, 7));
        let mut opt = Sgd::new(0.1, 0.9);
        let x = init::uniform(&[8, 2], -1.0, 1.0, 3);
        let y = Tensor::filled(&[8, 1], 0.5);
        for step in 0..steps {
            if split == Some(step) {
                // Checkpoint/restore through fresh objects mid-run.
                let weights = net.export_params();
                let velocity = opt.export_state();
                let mut net2 = Sequential::new();
                net2.push(Linear::new(2, 1, 99));
                net2.import_params(&weights).unwrap();
                let mut opt2 = Sgd::new(0.1, 0.9);
                if transfer_velocity {
                    opt2.import_state(velocity);
                }
                net = net2;
                opt = opt2;
            }
            let pred = net.forward(&x, true);
            let (_, grad) = mean_sq_error(&pred, &y);
            net.zero_grads();
            net.backward(&grad);
            opt.step(&mut net);
        }
        net.export_params()
    }

    #[test]
    fn sgd_state_roundtrip_is_bit_identical() {
        assert_eq!(sgd_run(9, None, true), sgd_run(9, Some(4), true));
        // The equality above genuinely exercises the momentum state: the
        // same split with the velocity dropped diverges.
        assert_ne!(sgd_run(9, None, true), sgd_run(9, Some(4), false));
    }

    #[test]
    fn lr_setter_roundtrip() {
        let mut opt = Sgd::new(0.01, 0.0);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }
}
