//! Bit-identity of the litho entry points against the interleaved pipeline.
//!
//! `gradient_into` and `aerial_image_into` keep each kernel's fields in
//! `RealFft2d`'s tile layout and every spectrum in split planes, fold the
//! spectral products into the transforms' entry and exit moves, and never
//! unpack a per-kernel field. None of that may move a bit. The reference
//! below is the pipeline those moves replaced, built only from public calls:
//!
//! * kernel spectra from the raw [`SocsKernels::from_config`] taps,
//!   embedded with the center tap at the origin, each through the
//!   interleaved [`RealFft2d::forward`];
//! * per kernel, `mul_into` with the mask spectrum and an interleaved
//!   [`RealFft2d::inverse`] into an image-layout field;
//! * the intensity from zero in kernel order, the resist sweep in image
//!   layout, and the error `Σ d²` in f64 in pixel order;
//! * per kernel, `r2c(g ⊙ a)`, `mul_conj_into` and the `2w` scale, the
//!   adjoint sum from zero in stack order, and one interleaved inverse into
//!   the gradient.
//!
//! It runs at 64 px with 12 kernels and at 128 px with 4, at doses 1 and
//! 0.98.

use ganopc_fft::spectrum::{mul_conj_into, mul_into};
use ganopc_fft::{Complex, RealFft2d};
use ganopc_litho::{Field, LithoModel, OpticalConfig, SocsKernels};

/// One kernel of the reference: its weight and interleaved half-spectrum.
struct Kernel {
    weight: f32,
    spectrum: Vec<Complex>,
}

/// The reference kernel stack of `model`, from the raw taps.
fn kernels(model: &LithoModel, plan: &RealFft2d) -> Vec<Kernel> {
    let (h, w) = model.shape();
    let stack = SocsKernels::from_config(model.config());
    let size = stack.kernel_size();
    stack
        .kernels()
        .iter()
        .map(|k| {
            let mut frame = vec![0.0f32; h * w];
            for ky in 0..size {
                for kx in 0..size {
                    let dy = (ky + h - size / 2) % h;
                    let dx = (kx + w - size / 2) % w;
                    frame[dy * w + dx] = k.taps[ky * size + kx];
                }
            }
            let mut spectrum = vec![Complex::ZERO; plan.spectrum_len()];
            plan.forward(&frame, &mut spectrum, &mut Vec::new()).unwrap();
            Kernel { weight: k.weight, spectrum }
        })
        .collect()
}

/// The image-layout field of every kernel, in kernel order, and the
/// intensity they sum to.
fn fields(plan: &RealFft2d, kernels: &[Kernel], mask: &Field) -> (Vec<Vec<f32>>, Vec<f32>) {
    let mut mask_half = vec![Complex::ZERO; plan.spectrum_len()];
    plan.forward(mask.as_slice(), &mut mask_half, &mut Vec::new()).unwrap();
    let mut intensity = vec![0.0f32; plan.real_len()];
    let fields = kernels
        .iter()
        .map(|k| {
            let mut prod = vec![Complex::ZERO; plan.spectrum_len()];
            mul_into(&mut prod, &mask_half, &k.spectrum);
            let mut field = vec![0.0f32; plan.real_len()];
            plan.inverse(&mut prod, &mut field, &mut Vec::new()).unwrap();
            for (acc, &v) in intensity.iter_mut().zip(&field) {
                *acc += k.weight * v * v;
            }
            field
        })
        .collect();
    (fields, intensity)
}

/// The reference gradient and error.
fn gradient(
    model: &LithoModel,
    plan: &RealFft2d,
    kernels: &[Kernel],
    mask: &Field,
    target: &Field,
    dose: f32,
) -> (Vec<f32>, f64) {
    let (fields, intensity) = fields(plan, kernels, mask);
    let (alpha, th) = (model.sigmoid_alpha(), model.threshold());
    let chain = 2.0 * alpha * dose;
    let mut error = 0.0f64;
    let mut g = vec![0.0f32; plan.real_len()];
    for ((gi, &i), &ti) in g.iter_mut().zip(&intensity).zip(target.as_slice()) {
        let zv = 1.0 / (1.0 + (-alpha * (dose * i - th)).exp());
        let d = zv - ti;
        error += (d as f64) * (d as f64);
        *gi = chain * d * zv * (1.0 - zv);
    }
    let mut sum = vec![Complex::ZERO; plan.spectrum_len()];
    for (k, field) in kernels.iter().zip(&fields) {
        let u: Vec<f32> = g.iter().zip(field).map(|(&gi, &fi)| gi * fi).collect();
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(&u, &mut spec, &mut Vec::new()).unwrap();
        let mut adjoint = vec![Complex::ZERO; plan.spectrum_len()];
        mul_conj_into(&mut adjoint, &spec, &k.spectrum);
        for (acc, c) in sum.iter_mut().zip(&adjoint) {
            *acc += c.scale(2.0 * k.weight);
        }
    }
    let mut grad = vec![0.0f32; plan.real_len()];
    plan.inverse(&mut sum, &mut grad, &mut Vec::new()).unwrap();
    (grad, error)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A gray mask over two bars, different on every pixel, and a binary
/// target near it, so no pixel's resist sweep saturates.
fn mask_and_target(size: usize) -> (Field, Field) {
    let (mut mask, mut target) = (Field::zeros(size, size), Field::zeros(size, size));
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let (a, b) = (size * 5 / 16, size * 11 / 16);
    for y in 0..size {
        for x in 0..size {
            let bar = (a..b).contains(&x) && (size / 8..size * 7 / 8).contains(&y)
                || (size * 3 / 8..size / 2).contains(&y) && (size / 8..size * 7 / 8).contains(&x);
            if bar {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                mask.set(y, x, 0.3 + 0.6 * ((state >> 40) as f32 / (1u64 << 24) as f32));
                target.set(y, x, 1.0);
            }
        }
    }
    (mask, target)
}

#[test]
fn gradient_and_aerial_match_the_interleaved_pipeline_bit_for_bit() {
    for (size, kernel_count) in [(64usize, 12usize), (128, 4)] {
        let mut cfg = OpticalConfig::default_32nm(2048.0 / size as f64);
        cfg.pupil_grid = 11;
        cfg.num_kernels = kernel_count;
        let plan = RealFft2d::new(size, size).unwrap();
        let (mask, target) = mask_and_target(size);
        let model = LithoModel::new(cfg, size, size).unwrap();
        let kernels = kernels(&model, &plan);
        assert_eq!(kernels.len(), model.num_kernels(), "{size} px");

        let mut aerial = vec![0.0f32; size * size];
        model.aerial_image_into(&mask, &mut aerial).unwrap();
        let (_, want) = fields(&plan, &kernels, &mask);
        assert!(bits(&aerial) == bits(&want), "{size} px: aerial bits differ");

        for dose in [1.0f32, 0.98] {
            let at = format!("{size} px, dose {dose}");
            let mut grad = vec![0.0f32; size * size];
            let error = model.gradient_into(&mask, &target, dose, &mut grad).unwrap();
            let (want_grad, want_error) = gradient(&model, &plan, &kernels, &mask, &target, dose);
            assert!(want_error > 0.0, "{at}: a zero error tests nothing");
            assert_eq!(error.to_bits(), want_error.to_bits(), "{at}: error bits differ");
            assert!(bits(&grad) == bits(&want_grad), "{at}: gradient bits differ");
        }
    }
}
