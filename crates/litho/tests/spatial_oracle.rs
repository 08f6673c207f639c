//! Independent spatial-domain oracle for the SOCS aerial image (Eq. (2)) and
//! the Eq. (14) lithography gradient.
//!
//! The model evaluates both through packed real FFTs and frame-sized
//! kernel half-spectra. The oracle below shares none of that:
//! it takes the raw SOCS taps from [`SocsKernels::from_config`] and runs
//! direct cyclic convolutions in f64, with the kernel's center tap at
//! offset zero (the convention the model's kernel embedding uses):
//!
//! * `A_k[m] = Σ_d h_k[d] · M[m − d]`, `I = Σ_k w_k A_k²`;
//! * `Z = σ(α(dose·I − I_th))`, `g = 2α·dose·(Z − Z_t)·Z·(1 − Z)`;
//! * `∂E/∂M[n] = Σ_k 2 w_k Σ_m g[m]·A_k[m]·h_k[m − n]`.
//!
//! Errors are reported relative to the oracle's largest magnitude. Both
//! tests run on a 32 px frame at 32 nm/px (8 kernels, 25×25-tap support).
//! At doses 1 and 0.95 the worst relative errors measured were 5.8e-7 for
//! the aerial image, 8.4e-7 for the error `E` and 4.2e-6 for the gradient,
//! in debug and release builds alike. The tolerances below sit about 12×
//! above the larger two. Scaling one kernel weight by 1.01 in the oracle
//! moves the aerial image by 9.9e-3 and the gradient by 6.5e-2 to 8.6e-2
//! relative, far outside them: that negative control shows the tolerances
//! can fail.

use ganopc_litho::{Field, LithoModel, OpticalConfig, SocsKernels};

const SIZE: usize = 32;

/// Relative tolerance for the aerial image and the error `E`.
const AERIAL_TOLERANCE: f64 = 1e-5;
/// Relative tolerance for the Eq. (14) gradient.
const GRADIENT_TOLERANCE: f64 = 5e-5;

/// The model both tests run on.
fn model() -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(32.0);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 8;
    LithoModel::new(cfg, SIZE, SIZE).unwrap()
}

/// One SOCS kernel in f64: weight, odd support size and row-major taps.
struct Kernel {
    weight: f64,
    size: usize,
    taps: Vec<f64>,
}

fn kernels(model: &LithoModel) -> Vec<Kernel> {
    let stack = SocsKernels::from_config(model.config());
    stack
        .kernels()
        .iter()
        .map(|k| Kernel {
            weight: k.weight as f64,
            size: stack.kernel_size(),
            taps: k.taps.iter().map(|&t| t as f64).collect(),
        })
        .collect()
}

/// Visits every tap of `k` as `(dy, dx, tap)`: the tap's offset from the
/// kernel center, wrapped into the frame.
fn for_each_tap(k: &Kernel, mut visit: impl FnMut(usize, usize, f64)) {
    let half = k.size / 2;
    for ky in 0..k.size {
        for kx in 0..k.size {
            let dy = (ky + SIZE - half) % SIZE;
            let dx = (kx + SIZE - half) % SIZE;
            visit(dy, dx, k.taps[ky * k.size + kx]);
        }
    }
}

/// `A_k = M ⊛ h_k` by direct cyclic convolution.
fn convolve(mask: &[f64], k: &Kernel) -> Vec<f64> {
    let mut out = vec![0.0; SIZE * SIZE];
    for y in 0..SIZE {
        for x in 0..SIZE {
            let mut acc = 0.0;
            for_each_tap(k, |dy, dx, h| {
                acc += h * mask[((y + SIZE - dy) % SIZE) * SIZE + (x + SIZE - dx) % SIZE];
            });
            out[y * SIZE + x] = acc;
        }
    }
    out
}

struct Oracle {
    aerial: Vec<f64>,
    grad: Vec<f64>,
    error: f64,
}

fn oracle(
    model: &LithoModel,
    kernels: &[Kernel],
    mask: &Field,
    target: &Field,
    dose: f64,
) -> Oracle {
    let m: Vec<f64> = mask.as_slice().iter().map(|&v| v as f64).collect();
    let fields: Vec<Vec<f64>> = kernels.iter().map(|k| convolve(&m, k)).collect();
    let mut aerial = vec![0.0f64; SIZE * SIZE];
    for (k, a) in kernels.iter().zip(&fields) {
        for (i, &v) in aerial.iter_mut().zip(a) {
            *i += k.weight * v * v;
        }
    }
    let alpha = model.sigmoid_alpha() as f64;
    let th = model.threshold() as f64;
    let mut error = 0.0;
    let g: Vec<f64> = aerial
        .iter()
        .zip(target.as_slice())
        .map(|(&i, &t)| {
            let z = 1.0 / (1.0 + (-alpha * (dose * i - th)).exp());
            let d = z - t as f64;
            error += d * d;
            2.0 * alpha * dose * d * z * (1.0 - z)
        })
        .collect();
    // ∂E/∂M[n] = Σ_k 2 w_k Σ_d g[n+d]·A_k[n+d]·h_k[d].
    let mut grad = vec![0.0f64; SIZE * SIZE];
    for (k, a) in kernels.iter().zip(&fields) {
        for y in 0..SIZE {
            for x in 0..SIZE {
                let mut acc = 0.0;
                for_each_tap(k, |dy, dx, h| {
                    let mi = ((y + dy) % SIZE) * SIZE + (x + dx) % SIZE;
                    acc += g[mi] * a[mi] * h;
                });
                grad[y * SIZE + x] += 2.0 * k.weight * acc;
            }
        }
    }
    Oracle { aerial, grad, error }
}

/// Largest absolute difference relative to the oracle's largest magnitude.
fn relative_error(got: &[f32], expect: &[f64]) -> f64 {
    let scale = expect.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(scale > 0.0, "degenerate oracle field");
    got.iter().zip(expect).map(|(&g, &e)| (g as f64 - e).abs()).fold(0.0, f64::max) / scale
}

/// Two soft bars on a seeded noisy background: fractional mask values keep
/// the resist sigmoid off its plateaus, so the gradient is nonzero almost
/// everywhere.
fn inputs() -> (Field, Field) {
    let mut target = Field::zeros(SIZE, SIZE);
    for y in 6..26 {
        for x in (8..12).chain(18..23) {
            target.set(y, x, 1.0);
        }
    }
    let mut state = 0x5eed_u64;
    let values = target
        .as_slice()
        .iter()
        .map(|&t| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 40) as f32 / (1u64 << 24) as f32;
            0.7 * t + 0.3 * noise
        })
        .collect();
    (Field::from_vec(SIZE, SIZE, values), target)
}

/// Model outputs `(aerial, grad, error)` at `dose` through the production
/// entry points.
fn evaluate(
    model: &LithoModel,
    mask: &Field,
    target: &Field,
    dose: f32,
) -> (Vec<f32>, Vec<f32>, f64) {
    let mut aerial = vec![0.0f32; SIZE * SIZE];
    model.aerial_image_into(mask, &mut aerial).unwrap();
    let mut grad = vec![0.0f32; SIZE * SIZE];
    let error = model.gradient_into(mask, target, dose, &mut grad).unwrap();
    (aerial, grad, error)
}

#[test]
fn aerial_and_gradient_match_spatial_oracle() {
    let model = model();
    let kernels = kernels(&model);
    assert_eq!(kernels.len(), model.num_kernels());
    let (mask, target) = inputs();
    for dose in [1.0f32, 0.95] {
        let (aerial, grad, error) = evaluate(&model, &mask, &target, dose);
        let reference = oracle(&model, &kernels, &mask, &target, dose as f64);
        let aerial_err = relative_error(&aerial, &reference.aerial);
        let grad_err = relative_error(&grad, &reference.grad);
        let error_err = (error - reference.error).abs() / reference.error;
        println!(
            "dose {dose}: aerial rel err {aerial_err:.2e}, gradient rel err {grad_err:.2e}, \
             E rel err {error_err:.2e}"
        );
        assert!(aerial_err < AERIAL_TOLERANCE, "dose {dose}: aerial off by {aerial_err:.2e}");
        assert!(grad_err < GRADIENT_TOLERANCE, "dose {dose}: gradient off by {grad_err:.2e}");
        assert!(error_err < AERIAL_TOLERANCE, "dose {dose}: error off by {error_err:.2e}");
    }
}

#[test]
fn perturbed_oracle_fails_the_tolerance() {
    // Negative control: a 1 % change to one kernel weight must be visible
    // at the tolerances the agreement test uses, for both quantities.
    let model = model();
    let mut kernels = kernels(&model);
    kernels[0].weight *= 1.01;
    let (mask, target) = inputs();
    for dose in [1.0f32, 0.95] {
        let (aerial, grad, _) = evaluate(&model, &mask, &target, dose);
        let reference = oracle(&model, &kernels, &mask, &target, dose as f64);
        let aerial_err = relative_error(&aerial, &reference.aerial);
        let grad_err = relative_error(&grad, &reference.grad);
        println!("dose {dose}: perturbed aerial {aerial_err:.2e}, gradient {grad_err:.2e}");
        assert!(aerial_err > AERIAL_TOLERANCE, "dose {dose}: perturbation invisible in the aerial");
        assert!(
            grad_err > GRADIENT_TOLERANCE,
            "dose {dose}: perturbation invisible in the gradient"
        );
    }
}
