//! Property-based tests pinning the blocked/parallel GEMM and the
//! GEMM-lowered convolutions to straightforward scalar references: within
//! a tolerance against the plain triple loop, and bit for bit against the
//! per-element chains `gemm`'s module docs promise.

use ganopc_nn::layers::{Conv2d, ConvTranspose2d, Layer};
use ganopc_nn::{gemm, Tensor};
use proptest::prelude::*;

/// Deterministic xorshift fill in `[-1, 1)` so matrix contents can be derived
/// from a drawn seed (sizes and data would otherwise need dependent
/// strategies).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
    c
}

fn assert_close(actual: &[f32], expected: &[f32], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (idx, (&x, &y)) in actual.iter().zip(expected).enumerate() {
        let tol = 1e-5f32 * 1.0f32.max(x.abs()).max(y.abs());
        assert!((x - y).abs() <= tol, "{what}[{idx}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three GEMM layouts agree with the scalar triple loop across
    /// shapes that straddle the MR/NR/MC/KC block boundaries.
    #[test]
    fn gemm_matches_scalar_reference(
        m in 1usize..40,
        k in 1usize..64,
        n in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0xabcd);
        let expect = reference_matmul(&a, &b, m, k, n);
        // Each product writes into NaN, so an accumulated-into element fails.
        let mut c = vec![f32::NAN; m * n];
        gemm::matmul_into(&mut c, &a, &b, m, k, n);
        assert_close(&c, &expect, "matmul_into");

        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        c.fill(f32::NAN);
        gemm::matmul_tn_into(&mut c, &at, &b, m, k, n);
        assert_close(&c, &expect, "matmul_tn_into");

        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        c.fill(f32::NAN);
        gemm::matmul_nt_into(&mut c, &a, &bt, m, k, n);
        assert_close(&c, &expect, "matmul_nt_into");
    }
}

/// The tiled path's documented chain: one `mul_add` chain per element,
/// `k` ascending from +0.0. `a_at(i, p)` and `b_at(p, j)` read the logical
/// operands whatever their storage.
fn chain_reference(
    a_at: impl Fn(usize, usize) -> f32,
    b_at: impl Fn(usize, usize) -> f32,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a_at(i, p).mul_add(b_at(p, j), acc);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// The dot path's documented chains: lane `l` sums the depth indices
/// `p ≡ l (mod LANES)` with `mul_add` in ascending order from +0.0, then
/// the lanes fold in lane order from −0.0.
fn lanes_reference(a: &[f32], bt: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut lanes = [0.0f32; gemm::LANES];
            for p in 0..k {
                let l = p % gemm::LANES;
                lanes[l] = a[i * k + p].mul_add(bt[j * k + p], lanes[l]);
            }
            let mut sum = -0.0f32;
            for lane in lanes {
                sum += lane;
            }
            c[i * n + j] = sum;
        }
    }
    c
}

fn assert_bits(actual: &[f32], expected: &[f32], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (idx, (&x, &y)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{idx}]: {x} vs {y}");
    }
}

/// Dimension values: three draws in five are small sizes, the rest sit on
/// or next to one of the block edges in `edges`.
fn straddling(edges: &'static [usize]) -> impl Strategy<Value = usize> {
    (0usize..5, 0..edges.len(), 0usize..3, 1usize..20).prop_map(move |(kind, e, off, small)| {
        if kind < 3 {
            small
        } else {
            edges[e] - 1 + off
        }
    })
}

/// Products of at most this many multiply-adds (keeps debug runs short
/// while still clearing the parallel-split threshold).
const MAX_MULADDS: usize = 1 << 21;

/// Checks all three layouts of one `m×k×n` product against the documented
/// chains, serially and through the 4-way crew.
fn check_chains(m: usize, k: usize, n: usize, seed: u64) {
    let a = fill(m * k, seed);
    let b = fill(k * n, seed ^ 0xabcd);
    let mut at = vec![0.0f32; k * m];
    for i in 0..m {
        for p in 0..k {
            at[p * m + i] = a[i * k + p];
        }
    }
    let mut bt = vec![0.0f32; n * k];
    for p in 0..k {
        for j in 0..n {
            bt[j * k + p] = b[p * n + j];
        }
    }
    let tiled = chain_reference(|i, p| a[i * k + p], |p, j| b[p * n + j], m, k, n);
    let nt_expect = if m < gemm::NT_PACK_MIN_ROWS && k <= gemm::NT_DOT_MAX_DEPTH {
        lanes_reference(&a, &bt, m, k, n)
    } else {
        tiled.clone()
    };
    for threads in [1, 4] {
        ganopc_nn::pool::set_max_threads(Some(threads));
        let mut c = vec![f32::NAN; m * n];
        gemm::matmul_into(&mut c, &a, &b, m, k, n);
        assert_bits(&c, &tiled, &format!("NN {m}x{k}x{n} at {threads} threads"));
        c.fill(f32::NAN);
        gemm::matmul_tn_into(&mut c, &at, &b, m, k, n);
        assert_bits(&c, &tiled, &format!("TN {m}x{k}x{n} at {threads} threads"));
        c.fill(f32::NAN);
        gemm::matmul_nt_into(&mut c, &a, &bt, m, k, n);
        assert_bits(&c, &nt_expect, &format!("NT {m}x{k}x{n} at {threads} threads"));
    }
    ganopc_nn::pool::set_max_threads(None);
}

/// The block edges one at a time, and the parallel splits: every shape
/// here clears the parallel threshold except the first two, `m ≥ n` takes
/// the row split and `m < n` the column split.
#[test]
fn gemm_chains_are_bit_exact_on_block_edges() {
    for (seed, &(m, k, n)) in [
        (5, 17, 3),
        (13, 9, 31),
        (49, 2049, 17),
        (47, 2049, 9),
        (47, 2048, 9),
        (48, 257, 47),
        (9, 257, 513),
        (48, 129, 513),
        (7, 255, 1025),
    ]
    .iter()
    .enumerate()
    {
        check_chains(m, k, n, seed as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every layout reproduces its documented per-element chain bit for bit,
    /// serially and through the 4-way crew, across shapes that straddle MR,
    /// NR, KC, NC and both `A·Bᵀ` dot-path thresholds.
    #[test]
    fn gemm_chains_are_bit_exact(
        m in straddling(&[gemm::MR, gemm::NR, gemm::NT_PACK_MIN_ROWS]),
        k in straddling(&[gemm::LANES, gemm::KC, gemm::NT_DOT_MAX_DEPTH]),
        n in straddling(&[gemm::NR, gemm::NC]),
        seed in 0u64..u64::MAX,
    ) {
        // Shrink the largest dimension until the product fits the budget.
        let (mut m, mut k, mut n) = (m, k, n);
        while m * k * n > MAX_MULADDS {
            if k >= m.max(n) { k /= 2 } else if n >= m { n /= 2 } else { m /= 2 }
        }
        check_chains(m, k, n, seed);
    }
}

/// Parameters of a layer in visitation order (weight then bias), cloned.
fn params_of(layer: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.value.clone()));
    out
}

/// Gradients of a layer in visitation order (weight then bias), cloned.
fn grads_of(layer: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.grad.clone()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conv2d forward and backward (input, weight and bias gradients) match
    /// a direct sliding-window scalar implementation.
    #[test]
    fn conv2d_matches_scalar_reference(
        n in 1usize..3,
        ci in 1usize..3,
        co in 1usize..4,
        hw in 5usize..9,
        stride in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let (k, pad) = (3usize, 1usize);
        let mut conv = Conv2d::new(ci, co, k, stride, pad, seed ^ 1);
        let params = params_of(&mut conv);
        let (weight, bias) = (params[0].as_slice(), params[1].as_slice());
        let x = Tensor::from_vec(&[n, ci, hw, hw], fill(n * ci * hw * hw, seed));
        let y = conv.forward(&x, true);
        let [_, _, oh, ow] = conv.output_shape(n, hw, hw);

        // Forward reference: direct correlation.
        let mut expect = vec![0.0f32; n * co * oh * ow];
        let xs = x.as_slice();
        for ni in 0..n {
            for oc in 0..co {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias[oc];
                        for c in 0..ci {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let iy = (oy * stride + kh) as isize - pad as isize;
                                    let ix = (ox * stride + kw) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
                                        continue;
                                    }
                                    acc += xs[((ni * ci + c) * hw + iy as usize) * hw
                                            + ix as usize]
                                        * weight[((oc * ci + c) * k + kh) * k + kw];
                                }
                            }
                        }
                        expect[((ni * co + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        assert_close(y.as_slice(), &expect, "conv forward");

        // Backward reference: scatter the output gradient back through the
        // same taps.
        let go = Tensor::from_vec(&[n, co, oh, ow], fill(n * co * oh * ow, seed ^ 2));
        let gin = conv.backward(&go);
        let gos = go.as_slice();
        let mut gin_ref = vec![0.0f32; n * ci * hw * hw];
        let mut dw_ref = vec![0.0f32; co * ci * k * k];
        let mut db_ref = vec![0.0f32; co];
        for ni in 0..n {
            for oc in 0..co {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gos[((ni * co + oc) * oh + oy) * ow + ox];
                        db_ref[oc] += g;
                        for c in 0..ci {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let iy = (oy * stride + kh) as isize - pad as isize;
                                    let ix = (ox * stride + kw) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
                                        continue;
                                    }
                                    let xi = ((ni * ci + c) * hw + iy as usize) * hw
                                        + ix as usize;
                                    let wi = ((oc * ci + c) * k + kh) * k + kw;
                                    gin_ref[xi] += g * weight[wi];
                                    dw_ref[wi] += g * xs[xi];
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_close(gin.as_slice(), &gin_ref, "conv grad_in");
        let grads = grads_of(&mut conv);
        assert_close(grads[0].as_slice(), &dw_ref, "conv dW");
        assert_close(grads[1].as_slice(), &db_ref, "conv db");
    }

    /// ConvTranspose2d forward matches a direct scalar scatter.
    #[test]
    fn deconv_forward_matches_scalar_reference(
        n in 1usize..3,
        ci in 1usize..3,
        co in 1usize..3,
        hw in 3usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let (k, stride, pad) = (4usize, 2usize, 1usize);
        let mut up = ConvTranspose2d::new(ci, co, k, stride, pad, seed ^ 3);
        let params = params_of(&mut up);
        let (weight, bias) = (params[0].as_slice(), params[1].as_slice());
        let x = Tensor::from_vec(&[n, ci, hw, hw], fill(n * ci * hw * hw, seed));
        let y = up.forward(&x, true);
        let [_, _, oh, ow] = up.output_shape(n, hw, hw);

        let xs = x.as_slice();
        let mut expect = vec![0.0f32; n * co * oh * ow];
        for (slot, b) in expect.chunks_mut(oh * ow).enumerate() {
            let v = bias[slot % co];
            b.fill(v);
        }
        for ni in 0..n {
            for c in 0..ci {
                for iy in 0..hw {
                    for ix in 0..hw {
                        let xv = xs[((ni * ci + c) * hw + iy) * hw + ix];
                        for oc in 0..co {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let oy = (iy * stride + kh) as isize - pad as isize;
                                    let ox = (ix * stride + kw) as isize - pad as isize;
                                    if oy < 0 || ox < 0 || oy >= oh as isize || ox >= ow as isize {
                                        continue;
                                    }
                                    // Weight layout is [in_ch, out_ch, k, k].
                                    expect[((ni * co + oc) * oh + oy as usize) * ow
                                            + ox as usize] += xv
                                        * weight[((c * co + oc) * k + kh) * k + kw];
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_close(y.as_slice(), &expect, "deconv forward");
    }
}
