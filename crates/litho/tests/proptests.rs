//! Property-based tests for the lithography model.

use ganopc_litho::{Field, LithoModel, OpticalConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared small model — TCC decomposition is too costly per test case.
fn model() -> &'static LithoModel {
    static MODEL: OnceLock<LithoModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut cfg = OpticalConfig::default_32nm(64.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 6;
        LithoModel::new(cfg, 32, 32).expect("model")
    })
}

fn mask() -> impl Strategy<Value = Field> {
    prop::collection::vec(0.0f32..1.0, 32 * 32).prop_map(|v| Field::from_vec(32, 32, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Aerial intensity is nonnegative and bounded by a small multiple of
    /// the open-field intensity (≈1).
    #[test]
    fn aerial_intensity_physical(m in mask()) {
        let aerial = model().aerial_image(&m);
        prop_assert!(aerial.min() >= -1e-6);
        prop_assert!(aerial.max() < 3.0, "implausible intensity {}", aerial.max());
    }

    /// Quadratic homogeneity: I(αM) = α² I(M) for the bilinear Hopkins
    /// model (Eq. (2) is quadratic in the mask).
    #[test]
    fn aerial_quadratic_in_mask(m in mask(), alpha in 0.1f32..1.0) {
        let base = model().aerial_image(&m);
        let scaled = model().aerial_image(&m.map(|v| alpha * v));
        for (s, b) in scaled.as_slice().iter().zip(base.as_slice()) {
            let expect = alpha * alpha * b;
            prop_assert!((s - expect).abs() < 1e-3 + 1e-2 * expect.abs());
        }
    }

    /// Cyclic translation equivariance: shifting the mask shifts the image.
    #[test]
    fn aerial_translation_equivariant(m in mask(), dy in 0usize..32, dx in 0usize..32) {
        let base = model().aerial_image(&m);
        let mut shifted_mask = Field::zeros(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                shifted_mask.set((y + dy) % 32, (x + dx) % 32, m.get(y, x));
            }
        }
        let shifted = model().aerial_image(&shifted_mask);
        for y in 0..32 {
            for x in 0..32 {
                let a = base.get(y, x);
                let b = shifted.get((y + dy) % 32, (x + dx) % 32);
                prop_assert!((a - b).abs() < 1e-3, "at ({y},{x}): {a} vs {b}");
            }
        }
    }

    /// Printed area is monotone in dose.
    #[test]
    fn print_monotone_in_dose(m in mask()) {
        let mut last = -1.0f32;
        for dose in [0.8f32, 0.9, 1.0, 1.1, 1.2] {
            let area = model().print(&m, dose).sum();
            prop_assert!(area >= last);
            last = area;
        }
    }

    /// The relaxed wafer lies in (0, 1) and brackets the binary wafer.
    #[test]
    fn relaxation_brackets_binary(m in mask()) {
        let aerial = model().aerial_image(&m);
        let relaxed = model().relax(&aerial);
        prop_assert!(relaxed.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let binary = model().print_nominal(&m);
        for (r, b) in relaxed.as_slice().iter().zip(binary.as_slice()) {
            // Relaxed value is >= 0.5 exactly where the binary wafer is on.
            prop_assert_eq!(*r >= 0.5, *b >= 0.5);
        }
    }

    /// The lithography error of Eq. (11) is zero only against itself.
    #[test]
    fn gradient_error_consistency(m in mask()) {
        let mut grad = vec![0.0f32; m.len()];
        let error = model().gradient_into(&m, &model().print_nominal(&m), 1.0, &mut grad).unwrap();
        prop_assert!(error >= 0.0);
        prop_assert!(grad.iter().all(|g| g.is_finite()));
    }
}
