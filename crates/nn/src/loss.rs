//! Losses with input gradients.
//!
//! The GAN-OPC objectives (paper Eq. (7)–(10) and Algorithm 1 lines 7–8)
//! combine binary cross-entropy on discriminator probabilities with an L2
//! (squared error) term pulling generated masks toward the reference masks.
//! Both pieces live here as `(value, gradient)` pairs.

use crate::{guard, Tensor};

/// *Summed* squared error `Σ (a − b)²` — the paper's `‖M* − M‖₂²` term
/// (Algorithm 1 line 7) without averaging, so the α weight in the combined
/// loss means the same thing it does in the paper. Returns the sum and
/// **accumulates** `scale · 2(a − b)` into `grad` (which must already have
/// the same shape). Folding the batch/weight scale into the gradient pass
/// avoids materializing the intermediate gradient tensor in the trainer.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn sum_squared_error_acc_into(a: &Tensor, b: &Tensor, scale: f32, grad: &mut Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape(), "sse shape mismatch");
    assert_eq!(grad.shape(), a.shape(), "sse grad shape mismatch");
    let mut value = 0.0f64;
    for ((g, &x), &y) in grad.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        let d = x - y;
        value += (d as f64) * (d as f64);
        *g += (2.0 * d) * scale;
    }
    guard::check_finite_scalar("sse loss", value);
    guard::check_finite_slice("sse gradient", grad.as_slice());
    value
}

/// Clamps a probability away from 0/1 so `log` stays finite.
#[inline]
fn clamp_p(p: f32) -> f32 {
    p.clamp(1e-6, 1.0 - 1e-6)
}

/// Binary cross-entropy against constant label `y ∈ {0, 1}` on
/// probabilities (post-sigmoid): mean of `−[y·log p + (1−y)·log(1−p)]`,
/// plus the gradient with respect to `p`.
///
/// `bce_scalar_label(p, 1.0)` is the `−log D(·)` generator objective;
/// `bce_scalar_label(p, 0.0)` is the `−log(1 − D(·))` discriminator term
/// for generated samples. An allocating wrapper over
/// [`bce_scalar_label_into`] with unit scale.
///
/// # Panics
///
/// Panics unless `label` is exactly 0 or 1.
pub fn bce_scalar_label(p: &Tensor, label: f32) -> (f64, Tensor) {
    let mut grad = Tensor::zeros(&[1]);
    let value = bce_scalar_label_into(p, label, 1.0, &mut grad);
    (value, grad)
}

/// Binary cross-entropy with a fused scale: writes `scale · ∂BCE/∂p` into
/// `grad` (resized to match `p`) and returns the mean BCE value (see
/// [`bce_scalar_label`]).
///
/// # Panics
///
/// Panics unless `label` is exactly 0 or 1.
pub fn bce_scalar_label_into(p: &Tensor, label: f32, scale: f32, grad: &mut Tensor) -> f64 {
    assert!(label == 0.0 || label == 1.0, "label must be 0 or 1");
    let n = p.len() as f64;
    grad.resize(p.shape());
    let mut value = 0.0f64;
    for (g, &raw) in grad.as_mut_slice().iter_mut().zip(p.as_slice()) {
        let pc = clamp_p(raw);
        let base = if label == 1.0 {
            value += -(pc as f64).ln();
            -1.0 / (pc * n as f32)
        } else {
            value += -((1.0 - pc) as f64).ln();
            1.0 / ((1.0 - pc) * n as f32)
        };
        *g = base * scale;
    }
    guard::check_finite_scalar("bce loss", value / n);
    guard::check_finite_slice("bce gradient", grad.as_slice());
    value / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(f: &dyn Fn(&Tensor) -> (f64, Tensor), x: &Tensor, tol: f32) {
        let (_, grad) = f(x);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let fd = ((f(&plus).0 - f(&minus).0) / (2.0 * eps as f64)) as f32;
            let an = grad.as_slice()[i];
            assert!((fd - an).abs() < tol * fd.abs().max(an.abs()).max(1.0), "i={i}: {fd} vs {an}");
        }
    }

    /// `Σ (a − b)²` and its unit-scale gradient, accumulated into `-0.0`:
    /// the additive identity for every `f32` (`+0.0 + -0.0` would be
    /// `+0.0`), so each element is exactly `2(a − b)`.
    fn sse(a: &Tensor, b: &Tensor) -> (f64, Tensor) {
        let mut grad = Tensor::filled(a.shape(), -0.0);
        let value = sum_squared_error_acc_into(a, b, 1.0, &mut grad);
        (value, grad)
    }

    #[test]
    fn sse_zero_at_match() {
        let a = Tensor::from_vec(&[3], vec![1.0, -1.0, 0.5]);
        let (v, g) = sse(&a, &a);
        assert_eq!(v, 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sse_gradient_fd() {
        let b = Tensor::from_vec(&[3], vec![0.3, -0.2, 0.8]);
        let x = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        fd_check(&|t| sse(t, &b), &x, 0.01);
    }

    #[test]
    fn bce_label_one_penalizes_low_probability() {
        let near_one = Tensor::from_vec(&[1], vec![0.99]);
        let near_zero = Tensor::from_vec(&[1], vec![0.01]);
        assert!(bce_scalar_label(&near_one, 1.0).0 < bce_scalar_label(&near_zero, 1.0).0);
        assert!(bce_scalar_label(&near_zero, 0.0).0 < bce_scalar_label(&near_one, 0.0).0);
    }

    #[test]
    fn bce_gradients_fd_both_labels() {
        let x = Tensor::from_vec(&[4], vec![0.2, 0.5, 0.7, 0.9]);
        fd_check(&|t| bce_scalar_label(t, 1.0), &x, 0.01);
        fd_check(&|t| bce_scalar_label(t, 0.0), &x, 0.01);
    }

    #[test]
    fn bce_saturates_gracefully() {
        let x = Tensor::from_vec(&[2], vec![0.0, 1.0]);
        let (v1, g1) = bce_scalar_label(&x, 1.0);
        assert!(v1.is_finite());
        assert!(g1.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "label must be 0 or 1")]
    fn bce_rejects_soft_labels() {
        let _ = bce_scalar_label(&Tensor::zeros(&[1]), 0.5);
    }

    #[test]
    fn fused_bce_matches_allocating_plus_scale() {
        let p = Tensor::from_vec(&[4], vec![0.2, 0.5, 0.7, 0.9]);
        for label in [0.0, 1.0] {
            for scale in [1.0f32, 0.25] {
                let (v, mut g) = bce_scalar_label(&p, label);
                let mut fused = Tensor::zeros(&[1]);
                let fv = bce_scalar_label_into(&p, label, scale, &mut fused);
                assert_eq!(fv, v);
                g.scale_assign(scale);
                assert_eq!(fused, g);
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite sse gradient"))]
    fn nan_injected_into_gradient_trips_loss_guard() {
        // A NaN already sitting in the accumulator survives the `+=` and
        // must be caught at the loss boundary, not discovered steps later.
        let a = Tensor::from_vec(&[3], vec![0.5, -0.2, 0.8]);
        let b = Tensor::zeros(&[3]);
        let mut grad = Tensor::from_vec(&[3], vec![0.0, f32::NAN, 0.0]);
        let _ = sum_squared_error_acc_into(&a, &b, 1.0, &mut grad);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite sse loss"))]
    fn nan_input_trips_loss_value_guard() {
        let a = Tensor::from_vec(&[2], vec![f32::NAN, 0.0]);
        let b = Tensor::zeros(&[2]);
        let _ = sse(&a, &b);
    }

    #[test]
    fn fused_sse_accumulates_scaled_gradient() {
        let a = Tensor::from_vec(&[3], vec![0.5, -0.2, 0.8]);
        let b = Tensor::from_vec(&[3], vec![0.3, 0.1, 0.8]);
        let (v, g) = sse(&a, &b);
        let mut acc = Tensor::filled(&[3], 10.0);
        let fv = sum_squared_error_acc_into(&a, &b, 0.5, &mut acc);
        assert_eq!(fv, v);
        for (got, want) in acc.as_slice().iter().zip(g.as_slice()) {
            assert!((got - (10.0 + 0.5 * want)).abs() < 1e-6);
        }
    }
}
