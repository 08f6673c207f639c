//! Finite-difference check of the Algorithm 2 gradient chain: the Eq. (14)
//! lithography gradient back-propagated through the generator into its
//! weights.
//!
//! The litho gradient and each nn layer have their own checks; this one
//! covers the composition pre-training runs. The batch loss is
//! `L(W) = mean_b E(G_W(Z_t,b))`, evaluated with the calls `run_steps`
//! makes: `forward_into(train = true)`, `gradient_into` per sample,
//! `scale_assign(1/B)` and `backward_discard`. The weight gradient read
//! back through `visit_params` is projected on a seeded random unit
//! direction `d` and compared with the central difference
//! `(L(W + εd) − L(W − εd)) / 2ε`, with both points rebuilt from the saved
//! weights.
//!
//! On a 32 px generator with base 2 and a batch of 2, ε = 2e-3 gave a
//! relative gap of 2.1e-4. Over ε from 1e-3 to 5e-3 the gap stayed at or
//! below 4.3e-3. Below that band f32 rounding in `L` dominates. Above it
//! the ReLU kinks crossed by the step grow the gap linearly: 1.2e-2 at
//! ε = 1e-2. The 2 % tolerance sits about 5× above the worst gap in the
//! band.

use ganopc_core::{tensor_to_field, Generator, OpcDataset};
use ganopc_ilt::IltConfig;
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::Tensor;

const SIZE: usize = 32;
const EPSILON: f32 = 2e-3;
const TOLERANCE: f64 = 2e-2;

fn litho_model() -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / SIZE as f64);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 6;
    LithoModel::new(cfg, SIZE, SIZE).unwrap()
}

/// Batch loss `mean_b E(G(Z_t,b))`; with `backward`, also leaves `∂L/∂W`
/// in the generator's parameter gradients.
fn batch_loss(
    generator: &mut Generator,
    model: &LithoModel,
    targets: &Tensor,
    fields: &[Field],
    backward: bool,
) -> f64 {
    let mut masks = Tensor::zeros(&[1]);
    generator.forward_into(targets, &mut masks, true);
    let batch = fields.len();
    let plane = SIZE * SIZE;
    let mut litho_grad = Tensor::zeros(masks.shape());
    let mut total = 0.0;
    for (b, target) in fields.iter().enumerate() {
        let mask = tensor_to_field(&masks, b);
        let slice = &mut litho_grad.as_mut_slice()[b * plane..(b + 1) * plane];
        total += model.gradient_into(&mask, target, 1.0, slice).unwrap();
    }
    if backward {
        generator.zero_grads();
        litho_grad.scale_assign(1.0 / batch as f32);
        generator.backward_discard(&litho_grad);
    }
    total / batch as f64
}

/// Sets every generator parameter to `origin + scale · direction`.
fn set_params(generator: &mut Generator, origin: &[Tensor], direction: &[Vec<f32>], scale: f32) {
    let mut i = 0;
    generator.net_mut().visit_params(&mut |p| {
        let values = p.value.as_mut_slice().iter_mut().zip(origin[i].as_slice());
        for ((v, &o), d) in values.zip(&direction[i]) {
            *v = o + scale * d;
        }
        i += 1;
    });
}

#[test]
fn weight_gradient_matches_finite_difference() {
    let model = litho_model();
    let dataset = OpcDataset::synthesize(SIZE, 2, IltConfig::fast(), 21).unwrap();
    let (targets, _) = dataset.batch(&[0, 1]);
    let fields: Vec<Field> = dataset.targets().to_vec();
    let mut generator = Generator::new(SIZE, 2, 8);

    let loss = batch_loss(&mut generator, &model, &targets, &fields, true);
    assert!(loss > 0.0 && loss.is_finite());

    // Seeded random direction over every parameter, normalized to unit
    // length, and the analytic directional derivative ⟨∂L/∂W, d⟩.
    let mut state = 0x0a1f_u64;
    let mut origin: Vec<Tensor> = Vec::new();
    let mut direction: Vec<Vec<f32>> = Vec::new();
    let mut analytic = 0.0f64;
    generator.net_mut().visit_params(&mut |p| {
        origin.push(p.value.clone());
        let d: Vec<f32> = p
            .value
            .as_slice()
            .iter()
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect();
        analytic +=
            p.grad.as_slice().iter().zip(&d).map(|(&g, &v)| g as f64 * v as f64).sum::<f64>();
        direction.push(d);
    });
    let norm = direction.iter().flatten().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
    for v in direction.iter_mut().flatten() {
        *v /= norm as f32;
    }
    analytic /= norm;

    set_params(&mut generator, &origin, &direction, EPSILON);
    let plus = batch_loss(&mut generator, &model, &targets, &fields, false);
    set_params(&mut generator, &origin, &direction, -EPSILON);
    let minus = batch_loss(&mut generator, &model, &targets, &fields, false);
    let fd = (plus - minus) / (2.0 * EPSILON as f64);

    let gap = (fd - analytic).abs() / fd.abs().max(analytic.abs());
    println!("Algorithm 2 chain: fd {fd:.6e}, analytic {analytic:.6e}, relative gap {gap:.2e}");
    assert!(analytic.abs() > 1e-3, "directional derivative too small to test: {analytic}");
    assert!(gap < TOLERANCE, "fd {fd} vs analytic {analytic} (relative gap {gap:.2e})");
}
