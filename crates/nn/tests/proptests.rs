//! Property-based tests for the neural-network substrate.

use ganopc_nn::layers::{
    BatchNorm2d, Conv2d, ConvTranspose2d, Flatten, Layer, LeakyRelu, Linear, Relu, Sequential,
    Sigmoid,
};
use ganopc_nn::{checkpoint, loss, Tensor};
use proptest::prelude::*;

fn tensor4(n: usize, c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, n * c * h * w)
        .prop_map(move |v| Tensor::from_vec(&[n, c, h, w], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Convolution is translation-equivariant under cyclic-free interior
    /// shifts: shifting the input by one pixel shifts the output by one
    /// pixel (checked away from the padded border).
    #[test]
    fn conv_translation_equivariance(x in tensor4(1, 1, 8, 8)) {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 11);
        let y = conv.forward(&x, true);
        // Shift input right by 1.
        let mut shifted = Tensor::zeros(&[1, 1, 8, 8]);
        for r in 0..8 {
            for cc in 1..8 {
                shifted.set(&[0, 0, r, cc], x.at(&[0, 0, r, cc - 1]));
            }
        }
        let ys = conv.forward(&shifted, true);
        for r in 1..7 {
            for cc in 2..7 {
                let a = y.at(&[0, 0, r, cc - 1]);
                let b = ys.at(&[0, 0, r, cc]);
                prop_assert!((a - b).abs() < 1e-4, "at ({r},{cc}): {a} vs {b}");
            }
        }
    }

    /// Sigmoid output is always a probability; ReLU is idempotent.
    #[test]
    fn activation_ranges(x in tensor4(2, 1, 4, 4)) {
        let mut s = Sigmoid::new();
        let y = s.forward(&x, true);
        prop_assert!(y.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mut r = Relu::new();
        let once = r.forward(&x, true);
        let twice = r.forward(&once, true);
        prop_assert_eq!(once, twice);
    }

    /// LeakyReLU with slope 0 equals ReLU.
    #[test]
    fn leaky_zero_is_relu(x in tensor4(1, 2, 3, 3)) {
        let mut l = LeakyRelu::new(0.0);
        let mut r = Relu::new();
        prop_assert_eq!(l.forward(&x, true), r.forward(&x, true));
    }

    /// The summed squared error is nonnegative, zero at a match, and
    /// symmetric.
    #[test]
    fn sse_axioms(a in prop::collection::vec(-3.0f32..3.0, 16), b in prop::collection::vec(-3.0f32..3.0, 16)) {
        let ta = Tensor::from_vec(&[16], a);
        let tb = Tensor::from_vec(&[16], b);
        let sse = |x: &Tensor, y: &Tensor| {
            loss::sum_squared_error_acc_into(x, y, 1.0, &mut Tensor::zeros(&[16]))
        };
        let ab = sse(&ta, &tb);
        let ba = sse(&tb, &ta);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert_eq!(sse(&ta, &ta), 0.0);
    }

    /// Checkpoints roundtrip arbitrary snapshots.
    #[test]
    fn checkpoint_roundtrip(values in prop::collection::vec(-1e3f32..1e3, 1..64)) {
        let len = values.len();
        let snap = vec![Tensor::from_vec(&[len], values)];
        let restored = checkpoint::from_bytes(&checkpoint::to_bytes(&snap)).unwrap();
        prop_assert_eq!(restored, snap);
    }

    /// A deconv that mirrors a conv is its adjoint for arbitrary inputs.
    #[test]
    fn conv_deconv_adjoint(x in tensor4(1, 1, 6, 6), y in tensor4(1, 1, 6, 6)) {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 3);
        let mut deconv = ConvTranspose2d::new(1, 1, 3, 1, 1, 4);
        // Share weights, zero biases.
        let w = {
            let mut out = Vec::new();
            conv.visit_params(&mut |p| out.push(p.value.clone()));
            out
        };
        let mut idx = 0;
        deconv.visit_params(&mut |p| {
            if idx == 0 {
                p.value = w[0].clone().reshape(&[1, 1, 3, 3]);
            } else {
                p.value = Tensor::zeros(&[1]);
            }
            idx += 1;
        });
        idx = 0;
        conv.visit_params(&mut |p| {
            if idx == 1 {
                p.value = Tensor::zeros(&[1]);
            }
            idx += 1;
        });
        let cx = conv.forward(&x, true);
        let dy = deconv.forward(&y, true);
        let lhs: f64 = cx.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.as_slice().iter().zip(dy.as_slice()).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// BatchNorm in training mode outputs zero-mean unit-variance channels
    /// (within numeric tolerance) for any non-degenerate input.
    #[test]
    fn batchnorm_normalizes(x in tensor4(4, 2, 4, 4)) {
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x, true);
        let (n, c, h, w) = y.dims4();
        let plane = h * w;
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                vals.extend_from_slice(&y.as_slice()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "channel {ci} mean {mean}");
        }
    }

    /// End-to-end forward/backward shape stability on random stacks.
    #[test]
    fn sequential_shapes_stable(x in tensor4(2, 1, 8, 8)) {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 4, 3, 1, 1, 5));
        net.push(BatchNorm2d::new(4));
        net.push(LeakyRelu::new(0.2));
        net.push(Conv2d::new(4, 2, 4, 2, 1, 6));
        let y = net.forward(&x, true);
        prop_assert_eq!(y.shape(), &[2, 2, 4, 4]);
        let g = net.backward(&Tensor::filled(y.shape(), 1.0));
        prop_assert_eq!(g.shape(), x.shape());
    }

    /// The allocating `forward`/`backward` wrappers and the
    /// persistent-buffer paths (`forward_into`, `backward_into`,
    /// `backward_discard`) are bit-identical on a stack holding every layer
    /// type: conv, transposed conv, batchnorm, every activation, flatten
    /// (zero-copy reshape) and linear. Element-wise layers run in place
    /// mid-stack and through their copying `_into` adapters as the first
    /// layer (reading the caller's input, and backward on the discard path)
    /// and the last.
    #[test]
    fn into_paths_match_allocating_paths(x in tensor4(2, 1, 8, 8), g_scale in 0.5f32..1.5) {
        let build = || {
            let mut net = Sequential::new();
            net.push(LeakyRelu::new(0.1));
            net.push(Conv2d::new(1, 4, 3, 1, 1, 21));
            net.push(BatchNorm2d::new(4));
            net.push(LeakyRelu::new(0.2));
            net.push(ConvTranspose2d::new(4, 2, 4, 2, 1, 23));
            net.push(Relu::new());
            net.push(Flatten::new());
            net.push(Linear::new(2 * 16 * 16, 3, 22));
            net.push(Sigmoid::new());
            net
        };
        let mut old = build();
        let mut new = build();
        let y_old = old.forward(&x, true);
        let mut y_new = Tensor::zeros(&[1]);
        new.forward_into(&x, &mut y_new, true);
        prop_assert_eq!(y_old.shape(), y_new.shape());
        prop_assert_eq!(y_old.as_slice(), y_new.as_slice());

        let grad = Tensor::filled(y_old.shape(), g_scale);
        old.zero_grads();
        new.zero_grads();
        let gi_old = old.backward(&grad);
        let mut gi_new = Tensor::zeros(&[1]);
        new.backward_into(&grad, Some(&mut gi_new));
        prop_assert_eq!(gi_old.shape(), gi_new.shape());
        prop_assert_eq!(gi_old.as_slice(), gi_new.as_slice());

        let mut pg_old = Vec::new();
        old.visit_params(&mut |p| pg_old.push(p.grad.clone()));
        let mut i = 0;
        new.visit_params(&mut |p| {
            assert_eq!(p.grad.as_slice(), pg_old[i].as_slice(), "param grad {i} diverged");
            i += 1;
        });

        // The discard path skips the input gradient but must still produce
        // the exact same parameter gradients.
        let mut discard = build();
        let mut y_d = Tensor::zeros(&[1]);
        discard.forward_into(&x, &mut y_d, true);
        discard.zero_grads();
        discard.backward_discard(&grad);
        i = 0;
        discard.visit_params(&mut |p| {
            assert_eq!(p.grad.as_slice(), pg_old[i].as_slice(), "discard param grad {i} diverged");
            i += 1;
        });
    }

    /// Linear layer is affine: f(a+b) - f(b) == f(a) - f(0).
    #[test]
    fn linear_is_affine(
        a in prop::collection::vec(-2.0f32..2.0, 6),
        b in prop::collection::vec(-2.0f32..2.0, 6),
    ) {
        let mut fc = Linear::new(6, 3, 8);
        let ta = Tensor::from_vec(&[1, 6], a.clone());
        let tb = Tensor::from_vec(&[1, 6], b.clone());
        let tab = Tensor::from_vec(&[1, 6], a.iter().zip(&b).map(|(x, y)| x + y).collect());
        let zero = Tensor::zeros(&[1, 6]);
        let f_ab = fc.forward(&tab, true);
        let f_b = fc.forward(&tb, true);
        let f_a = fc.forward(&ta, true);
        let f_0 = fc.forward(&zero, true);
        for i in 0..3 {
            let lhs = f_ab.as_slice()[i] - f_b.as_slice()[i];
            let rhs = f_a.as_slice()[i] - f_0.as_slice()[i];
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }
}
