//! Property-based tests for the spectral engine.
//!
//! The 1-D FFT and the packed real 2-D FFT are checked against a naive
//! O(N²) DFT written in f64, over randomized power-of-two sizes up to 1024
//! and randomized rectangular shapes, including the Hermitian-packing
//! boundary columns. The real 2-D FFT's batched passes are also checked bit
//! for bit against a per-row and per-column reference built from
//! [`Fft1d::transform`] and a test-local copy of the row (un)tangling.

use ganopc_fft::{spectrum, Complex, Direction, Fft1d, RealFft2d};
use proptest::prelude::*;

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

/// Random power-of-two length in `2..=1024` with matching complex data.
fn sized_complex_vec() -> impl Strategy<Value = Vec<Complex>> {
    (1u32..=10).prop_flat_map(|log| complex_vec(1usize << log))
}

/// Random power-of-two rectangle (h in 1..=32, w in 2..=64) with real data.
fn sized_real_image() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (0u32..=5, 1u32..=6).prop_flat_map(|(hlog, wlog)| {
        let (h, w) = (1usize << hlog, 1usize << wlog);
        prop::collection::vec(-4.0f32..4.0, h * w).prop_map(move |img| (h, w, img))
    })
}

/// Random power-of-two rectangle (h in 1..=1024, w in 2..=256, at most 2^14
/// samples) with a real image and an arbitrary packed half-spectrum.
fn sized_image_and_spectrum() -> impl Strategy<Value = (usize, usize, Vec<f32>, Vec<Complex>)> {
    (0u32..=10).prop_flat_map(|hlog| (Just(hlog), 1u32..=(14 - hlog).min(8))).prop_flat_map(
        |(hlog, wlog)| {
            let (h, w) = (1usize << hlog, 1usize << wlog);
            (prop::collection::vec(-4.0f32..4.0, h * w), complex_vec(h * (w / 2 + 1)))
                .prop_map(move |(img, spec)| (h, w, img, spec))
        },
    )
}

/// Runs `plan` down every column of a row-major `plan.len() × cols` block,
/// one extracted column at a time.
fn transform_each_column(plan: &Fft1d, block: &mut [Complex], cols: usize, dir: Direction) {
    for c in 0..cols {
        let mut col: Vec<Complex> = block.iter().skip(c).step_by(cols).copied().collect();
        plan.transform(&mut col, dir).unwrap();
        for (dst, v) in block.iter_mut().skip(c).step_by(cols).zip(col) {
            *dst = v;
        }
    }
}

/// Untangling twiddles `e^{-2πik/w}` for `k = 0 ..= w/2`, computed exactly as
/// [`RealFft2d::new`] computes them.
fn untangle_twiddles(w: usize) -> Vec<Complex> {
    (0..=w / 2).map(|k| Complex::cis(-2.0 * std::f32::consts::PI * k as f32 / w as f32)).collect()
}

/// One image row's forward pass on its own: pack two real samples per
/// complex slot, a half-length [`Fft1d::transform`], then untangle into the
/// `w/2 + 1` stored bins of `row`.
fn row_forward(plan: &Fft1d, tw: &[Complex], src: &[f32], row: &mut [Complex]) {
    let m = src.len() / 2;
    for (z, pair) in row[..m].iter_mut().zip(src.chunks_exact(2)) {
        *z = Complex::new(pair[0], pair[1]);
    }
    plan.transform(&mut row[..m], Direction::Forward).unwrap();
    let z0 = row[0];
    let mut k = 1;
    while 2 * k < m {
        let zk = row[k];
        let zmk = row[m - k];
        let e = (zk + zmk.conj()).scale(0.5);
        let d = zk - zmk.conj();
        let o = Complex::new(0.5 * d.im, -0.5 * d.re);
        row[k] = e + tw[k] * o;
        row[m - k] = e.conj() + tw[m - k] * o.conj();
        k += 1;
    }
    if m >= 2 {
        row[m / 2] = row[m / 2].conj();
    }
    row[m] = Complex::new(z0.re - z0.im, 0.0);
    row[0] = Complex::new(z0.re + z0.im, 0.0);
}

/// One spectrum row's inverse pass on its own: tangle the `w/2 + 1` bins of
/// `row` (destroyed) into a half-length sequence, an inverse
/// [`Fft1d::transform`], then unpack the interleaved real samples.
fn row_inverse(plan: &Fft1d, tw: &[Complex], row: &mut [Complex], dst: &mut [f32]) {
    let m = dst.len() / 2;
    let x0 = row[0];
    let xm = row[m];
    let e0 = (x0 + xm.conj()).scale(0.5);
    let o0 = (x0 - xm.conj()).scale(0.5);
    row[0] = Complex::new(e0.re - o0.im, e0.im + o0.re);
    let mut k = 1;
    while 2 * k < m {
        let xk = row[k];
        let xmk = row[m - k];
        let e = (xk + xmk.conj()).scale(0.5);
        let t = (xk - xmk.conj()).scale(0.5);
        let o = t * tw[k].conj();
        row[k] = Complex::new(e.re - o.im, e.im + o.re);
        let (ec, oc) = (e.conj(), o.conj());
        row[m - k] = Complex::new(ec.re - oc.im, ec.im + oc.re);
        k += 1;
    }
    if m >= 2 {
        let x = row[m / 2];
        let e = (x + x.conj()).scale(0.5);
        let o = (x - x.conj()).scale(0.5) * tw[m / 2].conj();
        row[m / 2] = Complex::new(e.re - o.im, e.im + o.re);
    }
    plan.transform(&mut row[..m], Direction::Inverse).unwrap();
    for (z, pair) in row[..m].iter().zip(dst.chunks_exact_mut(2)) {
        pair[0] = z.re;
        pair[1] = z.im;
    }
}

/// Naive O(N²) DFT in f64 — the reference implementation.
fn naive_dft(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0f64,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
            let (s, c) = theta.sin_cos();
            re += x.re as f64 * c - x.im as f64 * s;
            im += x.re as f64 * s + x.im as f64 * c;
        }
        if matches!(dir, Direction::Inverse) {
            re /= n as f64;
            im /= n as f64;
        }
        *o = Complex::new(re as f32, im as f32);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planned radix-4/2 engine agrees with the naive O(N²) DFT at every
    /// power-of-two size in 2..=1024, both directions.
    #[test]
    fn fft1d_matches_naive_dft(data in sized_complex_vec(), inverse in 0u32..2) {
        let n = data.len();
        let dir = if inverse == 1 { Direction::Inverse } else { Direction::Forward };
        let plan = Fft1d::new(n).unwrap();
        let mut got = data.clone();
        plan.transform(&mut got, dir).unwrap();
        let expect = naive_dft(&data, dir);
        // Error scales with the magnitude flowing into each bin.
        let scale: f32 = data.iter().map(|c| c.abs()).sum::<f32>().max(1.0);
        let tol = 1e-6 * scale * (n as f32).log2().max(1.0) + 1e-4;
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g.re - e.re).abs() < tol, "n={n} {dir:?}: {g:?} vs {e:?}");
            prop_assert!((g.im - e.im).abs() < tol, "n={n} {dir:?}: {g:?} vs {e:?}");
        }
    }

    /// 1-D roundtrip is the identity.
    #[test]
    fn fft1d_roundtrip(data in sized_complex_vec()) {
        let plan = Fft1d::new(data.len()).unwrap();
        let mut buf = data.clone();
        plan.transform(&mut buf, Direction::Forward).unwrap();
        plan.transform(&mut buf, Direction::Inverse).unwrap();
        for (a, b) in buf.iter().zip(&data) {
            prop_assert!((a.re - b.re).abs() < 1e-2);
            prop_assert!((a.im - b.im).abs() < 1e-2);
        }
    }

    /// Linearity: FFT(αx + βy) == αFFT(x) + βFFT(y).
    #[test]
    fn fft1d_linearity(
        x in complex_vec(32),
        y in complex_vec(32),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
    ) {
        let plan = Fft1d::new(32).unwrap();
        let mut fx = x.clone();
        let mut fy = y.clone();
        let mut fz: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(&a, &b)| a.scale(alpha) + b.scale(beta))
            .collect();
        plan.transform(&mut fx, Direction::Forward).unwrap();
        plan.transform(&mut fy, Direction::Forward).unwrap();
        plan.transform(&mut fz, Direction::Forward).unwrap();
        for i in 0..32 {
            let expect = fx[i].scale(alpha) + fy[i].scale(beta);
            prop_assert!((fz[i].re - expect.re).abs() < 0.05);
            prop_assert!((fz[i].im - expect.im).abs() < 0.05);
        }
    }

    /// Cyclic time shift multiplies the spectrum by a phase, preserving
    /// magnitudes.
    #[test]
    fn fft1d_shift_preserves_magnitudes(data in complex_vec(32), shift in 0usize..32) {
        let plan = Fft1d::new(32).unwrap();
        let mut original = data.clone();
        let mut shifted: Vec<Complex> = (0..32).map(|i| data[(i + shift) % 32]).collect();
        plan.transform(&mut original, Direction::Forward).unwrap();
        plan.transform(&mut shifted, Direction::Forward).unwrap();
        for (a, b) in original.iter().zip(&shifted) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-2 * a.abs().max(1.0));
        }
    }

    /// Packed half-spectrum path vs the separable naive DFT (rows, then
    /// columns): every stored bin of the real FFT must match, on randomized
    /// rectangular shapes.
    #[test]
    fn rfft_matches_naive_dft((h, w, img) in sized_real_image()) {
        let rplan = RealFft2d::new(h, w).unwrap();
        let mut half = vec![Complex::ZERO; rplan.spectrum_len()];
        let mut scratch = Vec::new();
        rplan.forward(&img, &mut half, &mut scratch).unwrap();
        let mut full: Vec<Complex> = img.iter().map(|&v| Complex::from_real(v)).collect();
        for row in full.chunks_exact_mut(w) {
            let spectrum = naive_dft(row, Direction::Forward);
            row.copy_from_slice(&spectrum);
        }
        for x in 0..w {
            let col: Vec<Complex> = (0..h).map(|y| full[y * w + x]).collect();
            for (y, v) in naive_dft(&col, Direction::Forward).into_iter().enumerate() {
                full[y * w + x] = v;
            }
        }
        let hw = rplan.half_width();
        let scale: f32 = img.iter().map(|v| v.abs()).sum::<f32>().max(1.0);
        let tol = 1e-6 * scale * ((h * w) as f32).log2().max(1.0) + 1e-4;
        for ky in 0..h {
            for kx in 0..hw {
                let g = half[ky * hw + kx];
                let e = full[ky * w + kx];
                prop_assert!((g.re - e.re).abs() < tol, "{h}x{w} ({ky},{kx}): {g:?} vs {e:?}");
                prop_assert!((g.im - e.im).abs() < tol, "{h}x{w} ({ky},{kx}): {g:?} vs {e:?}");
            }
        }
    }

    /// The DC and Nyquist columns of the packed half-spectrum are
    /// self-conjugate along ky — the Hermitian-packing boundary invariant.
    #[test]
    fn rfft_boundary_columns_self_conjugate((h, w, img) in sized_real_image()) {
        let plan = RealFft2d::new(h, w).unwrap();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        let hw = plan.half_width();
        let scale: f32 = img.iter().map(|v| v.abs()).sum::<f32>().max(1.0);
        let tol = 1e-5 * scale + 1e-4;
        for b in [0, w / 2] {
            for ky in 0..h {
                let a = half[ky * hw + b];
                let c = half[((h - ky) % h) * hw + b].conj();
                prop_assert!((a.re - c.re).abs() < tol && (a.im - c.im).abs() < tol,
                    "{h}x{w} col {b} row {ky}: {a:?} vs {c:?}");
            }
        }
    }

    /// Real roundtrip through the packed half-spectrum is the identity.
    #[test]
    fn rfft_roundtrip((h, w, img) in sized_real_image()) {
        let plan = RealFft2d::new(h, w).unwrap();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f32; h * w];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
        for (a, b) in out.iter().zip(&img) {
            prop_assert!((a - b).abs() < 1e-3, "{h}x{w}");
        }
    }

    /// The batched passes are bit-identical to transforming one row and one
    /// column at a time: `forward` equals [`row_forward`] on every row
    /// followed by `Fft1d::transform` down every stored column, and `inverse`
    /// equals the column transforms followed by [`row_inverse`] on every row.
    #[test]
    fn rfft_column_pass_matches_per_column_fft1d(
        (h, w, img, spec) in sized_image_and_spectrum()
    ) {
        let plan = RealFft2d::new(h, w).unwrap();
        let row_plan = Fft1d::new(w / 2).unwrap();
        let col_plan = Fft1d::new(h).unwrap();
        let tw = untangle_twiddles(w);
        let hw = plan.half_width();
        let mut scratch = Vec::new();
        let bits = |v: &[Complex]| -> Vec<(u32, u32)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };

        let mut got = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(&img, &mut got, &mut scratch).unwrap();
        let mut want = vec![Complex::ZERO; plan.spectrum_len()];
        for (src, row) in img.chunks_exact(w).zip(want.chunks_exact_mut(hw)) {
            row_forward(&row_plan, &tw, src, row);
        }
        transform_each_column(&col_plan, &mut want, hw, Direction::Forward);
        prop_assert_eq!(bits(&got), bits(&want), "forward {}x{}", h, w);

        let mut got = vec![0.0f32; h * w];
        plan.inverse(&mut spec.clone(), &mut got, &mut scratch).unwrap();
        let mut half = spec;
        transform_each_column(&col_plan, &mut half, hw, Direction::Inverse);
        let mut want = vec![0.0f32; h * w];
        for (row, dst) in half.chunks_exact_mut(hw).zip(want.chunks_exact_mut(w)) {
            row_inverse(&row_plan, &tw, row, dst);
        }
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "inverse {}x{}", h, w);
    }

    /// 2-D convolution theorem: spatial cyclic convolution equals
    /// pointwise spectral multiplication (through the half-spectrum path:
    /// forward, `mul_into`, inverse).
    #[test]
    fn convolution_commutes(field in prop::collection::vec(0.0f32..1.0, 64)) {
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[1] = Complex::new(0.5, 0.0);
        kernel[4] = Complex::new(1.0, 0.0);
        kernel[7] = Complex::new(0.5, 0.0);
        let ks = spectrum::KernelSpectrum::new(&kernel, 3, 8, 8).unwrap();
        let plan = RealFft2d::new(8, 8).unwrap();
        let mut scratch = Vec::new();
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.forward(&field, &mut spec, &mut scratch).unwrap();
        let mut prod = vec![Complex::ZERO; plan.spectrum_len()];
        let (kre, kim) = ks.re_spectrum().unwrap();
        let kernel: Vec<Complex> = kre.iter().zip(kim).map(|(&re, &im)| Complex::new(re, im)).collect();
        spectrum::mul_into(&mut prod, &spec, &kernel);
        let mut out = vec![0.0f32; 64];
        plan.inverse(&mut prod, &mut out, &mut scratch).unwrap();
        // Direct spatial check on a couple of positions.
        for (y, x) in [(3usize, 3usize), (0, 0), (7, 5)] {
            let up = field[((y + 7) % 8) * 8 + x];
            let mid = field[y * 8 + x];
            let down = field[((y + 1) % 8) * 8 + x];
            let expect = 0.5 * up + mid + 0.5 * down;
            let got = out[y * 8 + x];
            prop_assert!((got - expect).abs() < 1e-3, "at ({y},{x}): {got} vs {expect}");
        }
    }

    /// DC bin equals the sum of samples.
    #[test]
    fn dc_bin_is_sum(field in prop::collection::vec(-4.0f32..4.0, 64)) {
        let sum: f32 = field.iter().sum();
        let rplan = RealFft2d::new(8, 8).unwrap();
        let mut half = vec![Complex::ZERO; rplan.spectrum_len()];
        let mut scratch = Vec::new();
        rplan.forward(&field, &mut half, &mut scratch).unwrap();
        prop_assert!((half[0].re - sum).abs() < 1e-2 * sum.abs().max(1.0));
        prop_assert!(half[0].im.abs() < 1e-3);
    }
}
