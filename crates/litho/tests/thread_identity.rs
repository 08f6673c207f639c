//! Bit-identity of the litho entry points across crew sizes.
//!
//! `gradient_into` and `aerial_image_into` fan SOCS kernels, frame rows and
//! spectrum rows out over the work crew. Every pixel and every spectrum bin
//! still adds the kernels in kernel order, and the f64 error `E` is one
//! serial sum in pixel order, so no output may move a bit with the thread
//! count. The frame has 64 rows, which split 22/21/21 across 3 threads, so
//! the uneven split is covered as well as the even ones at 2 and 4.
//!
//! One `#[test]` only: `pool::set_max_threads` applies to the whole
//! process, and tests running in parallel would race on it.

use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::pool;

const SIZE: usize = 64;

/// A gray mask with a different value on every pixel of two overlapping
/// bars, so the relaxed wafer is not saturated anywhere near the edges.
fn soft_mask() -> Field {
    let mut mask = Field::zeros(SIZE, SIZE);
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for y in 0..SIZE {
        for x in 0..SIZE {
            if (20..44).contains(&x) && (8..56).contains(&y) || (24..36).contains(&y) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                mask.set(y, x, 0.3 + 0.6 * ((state >> 40) as f32 / (1u64 << 24) as f32));
            }
        }
    }
    mask
}

fn target() -> Field {
    let mut t = Field::zeros(SIZE, SIZE);
    for y in 10..54 {
        for x in 28..36 {
            t.set(y, x, 1.0);
        }
    }
    for y in 26..34 {
        for x in 6..58 {
            t.set(y, x, 1.0);
        }
    }
    t
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The gradient's bits, its error's bits and the aerial image's bits at
/// the current thread cap.
fn outputs(
    model: &LithoModel,
    mask: &Field,
    target: &Field,
    dose: f32,
) -> (Vec<u32>, u64, Vec<u32>) {
    let mut grad = vec![0.0f32; SIZE * SIZE];
    let error = model.gradient_into(mask, target, dose, &mut grad).unwrap();
    let mut aerial = vec![0.0f32; SIZE * SIZE];
    model.aerial_image_into(mask, &mut aerial).unwrap();
    (bits(&grad), error.to_bits(), bits(&aerial))
}

#[test]
fn gradient_and_aerial_are_bit_identical_at_every_thread_count() {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / SIZE as f64);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 8;
    let (mask, target) = (soft_mask(), target());
    let model = LithoModel::new(cfg, SIZE, SIZE).unwrap();
    for dose in [1.0f32, 0.98] {
        pool::set_max_threads(Some(1));
        let (grad, error, aerial) = outputs(&model, &mask, &target, dose);
        assert!(f64::from_bits(error) > 0.0, "dose {dose}: a zero error tests nothing");
        for threads in [2, 3, 4] {
            pool::set_max_threads(Some(threads));
            let got = outputs(&model, &mask, &target, dose);
            let at = format!("dose {dose}, {threads} threads");
            assert_eq!(got.1, error, "{at}: error bits differ from 1 thread");
            assert!(got.0 == grad, "{at}: gradient bits differ from 1 thread");
            assert!(got.2 == aerial, "{at}: aerial bits differ from 1 thread");
        }
    }
    pool::set_max_threads(None);
}
