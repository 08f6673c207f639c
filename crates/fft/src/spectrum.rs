//! Frequency-domain products shared by the lithography and ILT pipelines.
//!
//! The convolution convention used across the workspace is *cyclic*
//! convolution on the full clip raster. Optical kernels have compact support
//! (tens of pixels) while clips keep a dark margin wider than that support,
//! so cyclic wrap-around never influences printed geometry — this mirrors how
//! the ICCAD-2013 kit applies its kernels.
//!
//! Operands are packed `h × (w/2+1)` half-spectra of
//! [`RealFft2d`](crate::RealFft2d). A kernel applied to a real mask is a
//! real frame with its center tap at the origin, so its spectrum is
//! Hermitian and the whole convolution runs through the real-FFT engine:
//! `ganopc-litho` splits each complex SOCS kernel into its real and
//! imaginary parts and keeps one such spectrum per part that does not
//! vanish.
//!
//! The products come in two forms with the same per-bin arithmetic: over
//! [`Complex`] bins (`mul_into`, `mul_conj_into`) and over one row of split
//! planes (`mul_split`, `mul_conj_split`), the form the transforms' entry
//! and exit moves use.

use crate::Complex;

/// Element-wise product into a separate output: `out[i] = a[i] * b[i]`.
///
/// The interleaved form of [`mul_split`], which the litho hot path runs;
/// the reference pipelines in the tests use this one.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_into(out: &mut [Complex], a: &[Complex], b: &[Complex]) {
    assert_eq!(out.len(), a.len(), "spectrum length mismatch");
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = *x * *y;
    }
}

/// Conjugated product into a separate output: `out[i] = a[i] * conj(b[i])`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_conj_into(out: &mut [Complex], a: &[Complex], b: &[Complex]) {
    assert_eq!(out.len(), a.len(), "spectrum length mismatch");
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = *x * y.conj();
    }
}

/// Split planes, or one row of them: real parts, then imaginary parts.
pub type Split<'a> = (&'a [f32], &'a [f32]);

/// Mutable split planes, or one row of them.
pub type SplitMut<'a> = (&'a mut [f32], &'a mut [f32]);

/// [`mul_into`] over one row of split planes: `out = a ⊙ b`, bin by bin.
///
/// # Panics
///
/// Panics if an operand row is shorter than `out`.
// lint: hot-path
pub fn mul_split(out: SplitMut<'_>, a: Split<'_>, b: Split<'_>) {
    let n = out.0.len();
    let (or, oi) = (out.0, &mut out.1[..n]);
    let (ar, ai, br, bi) = (&a.0[..n], &a.1[..n], &b.0[..n], &b.1[..n]);
    let bins = or.iter_mut().zip(oi).zip(ar).zip(ai).zip(br).zip(bi);
    for (((((or, oi), &ar), &ai), &br), &bi) in bins {
        let z = Complex::new(ar, ai) * Complex::new(br, bi);
        (*or, *oi) = (z.re, z.im);
    }
}

/// [`mul_conj_into`] over one row of split planes, then a scale:
/// `out = (a ⊙ conj(b)) · s`, bin by bin. `s = 1` keeps every product's
/// bits, since multiplying by one is exact.
///
/// # Panics
///
/// Panics if an operand row is shorter than `out`.
// lint: hot-path
pub fn mul_conj_split(out: SplitMut<'_>, a: Split<'_>, b: Split<'_>, s: f32) {
    let n = out.0.len();
    let (or, oi) = (out.0, &mut out.1[..n]);
    let (ar, ai, br, bi) = (&a.0[..n], &a.1[..n], &b.0[..n], &b.1[..n]);
    let bins = or.iter_mut().zip(oi).zip(ar).zip(ai).zip(br).zip(bi);
    for (((((or, oi), &ar), &ai), &br), &bi) in bins {
        let z = (Complex::new(ar, ai) * Complex::new(br, bi).conj()).scale(s);
        (*or, *oi) = (z.re, z.im);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RealFft2d;

    /// Direct O(N²·K²) cyclic convolution reference.
    fn naive_cyclic_convolve(
        field: &[f32],
        h: usize,
        w: usize,
        kernel: &[Complex],
        ksize: usize,
    ) -> Vec<Complex> {
        let half = ksize as isize / 2;
        let mut out = vec![Complex::ZERO; h * w];
        for y in 0..h as isize {
            for x in 0..w as isize {
                let mut acc = Complex::ZERO;
                for ky in 0..ksize as isize {
                    for kx in 0..ksize as isize {
                        let sy = (y - (ky - half)).rem_euclid(h as isize) as usize;
                        let sx = (x - (kx - half)).rem_euclid(w as isize) as usize;
                        let f = field[sy * w + sx];
                        acc += kernel[(ky * ksize as isize + kx) as usize].scale(f);
                    }
                }
                out[(y * w as isize + x) as usize] = acc;
            }
        }
        out
    }

    /// The split-plane half-spectrum of a real `ksize × ksize` kernel,
    /// embedded in an `h × w` frame with its center tap at the origin.
    fn kernel_spectrum(plan: &RealFft2d, kernel: &[f32], ksize: usize) -> (Vec<f32>, Vec<f32>) {
        let (h, w, half) = (plan.height(), plan.width(), ksize / 2);
        let mut frame = vec![0.0f32; h * w];
        for ky in 0..ksize {
            for kx in 0..ksize {
                frame[(ky + h - half) % h * w + (kx + w - half) % w] = kernel[ky * ksize + kx];
            }
        }
        split_spectrum(plan, &frame)
    }

    /// The forward transform of a real field, as split planes.
    fn split_spectrum(plan: &RealFft2d, field: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let n = plan.spectrum_len();
        let (mut spec_re, mut spec_im) = (vec![0.0f32; n], vec![0.0f32; n]);
        plan.forward_with(
            |tile| tile.pack(field),
            |re, im| {
                spec_re.copy_from_slice(re);
                spec_im.copy_from_slice(im);
            },
        );
        (spec_re, spec_im)
    }

    /// Filters a real field with one kernel spectrum the way the litho
    /// model does: forward transform into split planes, then the inverse
    /// entered by the spectral product (`product` is [`mul_split`] for
    /// convolution, [`mul_conj_split`] at unit scale for correlation) and
    /// left by unpacking.
    fn filter(
        plan: &RealFft2d,
        field: &[f32],
        (k_re, k_im): &(Vec<f32>, Vec<f32>),
        product: fn(SplitMut<'_>, Split<'_>, Split<'_>),
    ) -> Vec<f32> {
        let (spec_re, spec_im) = split_spectrum(plan, field);
        let hw = plan.half_width();
        fn row<'a>(re: &'a [f32], im: &'a [f32], ky: usize, hw: usize) -> Split<'a> {
            (&re[ky * hw..][..hw], &im[ky * hw..][..hw])
        }
        let mut out = vec![0.0f32; plan.real_len()];
        plan.inverse_with(
            |ky, re, im| {
                product((re, im), row(&spec_re, &spec_im, ky, hw), row(k_re, k_im, ky, hw))
            },
            |tile| tile.unpack(&mut out),
        );
        out
    }

    fn correlate(out: SplitMut<'_>, a: Split<'_>, b: Split<'_>) {
        mul_conj_split(out, a, b, 1.0);
    }

    #[test]
    fn identity_kernel_is_noop() {
        let (h, w) = (8, 8);
        let mut kernel = vec![0.0f32; 9];
        kernel[4] = 1.0; // center tap of a 3x3 kernel
        let plan = RealFft2d::new(h, w).unwrap();
        let field: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
        let out = filter(&plan, &field, &kernel_spectrum(&plan, &kernel, 3), mul_split);
        for (o, f) in out.iter().zip(&field) {
            assert!((o - f).abs() < 1e-4);
        }
    }

    #[test]
    fn fft_convolution_matches_naive() {
        let (h, w) = (16, 8);
        let ksize = 5;
        let kernel: Vec<Complex> = (0..ksize * ksize)
            .map(|i| Complex::new((i as f32 * 0.31).sin(), (i as f32 * 0.17).cos() * 0.2))
            .collect();
        let field: Vec<f32> = (0..h * w).map(|i| ((i * 5 % 11) as f32) / 11.0).collect();
        let plan = RealFft2d::new(h, w).unwrap();
        let part = |f: fn(&Complex) -> f32| -> (Vec<f32>, Vec<f32>) {
            let taps: Vec<f32> = kernel.iter().map(f).collect();
            kernel_spectrum(&plan, &taps, ksize)
        };
        let re = filter(&plan, &field, &part(|c| c.re), mul_split);
        let im = filter(&plan, &field, &part(|c| c.im), mul_split);
        let slow = naive_cyclic_convolve(&field, h, w, &kernel, ksize);
        for ((a_re, a_im), b) in re.iter().zip(&im).zip(&slow) {
            assert!((a_re - b.re).abs() < 1e-3, "{a_re}+{a_im}i vs {b}");
            assert!((a_im - b.im).abs() < 1e-3, "{a_re}+{a_im}i vs {b}");
        }
    }

    #[test]
    fn correlation_flips_kernel() {
        // Correlation with kernel k == convolution with conj + spatial flip;
        // verify on an asymmetric real kernel via an impulse response.
        let (h, w) = (8, 8);
        let mut kernel = vec![0.0f32; 9];
        kernel[0] = 1.0; // top-left tap of a 3x3 kernel
        let plan = RealFft2d::new(h, w).unwrap();
        let mut field = vec![0.0f32; h * w];
        field[3 * w + 3] = 1.0;

        let spectrum = kernel_spectrum(&plan, &kernel, 3);
        let conv = filter(&plan, &field, &spectrum, mul_split);
        let corr = filter(&plan, &field, &spectrum, correlate);
        // Convolution shifts the impulse by (-1,-1); correlation by (+1,+1).
        let peak_at = |v: &[f32]| {
            let (idx, _) =
                v.iter().enumerate().max_by(|a, b| a.1.abs().total_cmp(&b.1.abs())).unwrap();
            (idx / w, idx % w)
        };
        assert_eq!(peak_at(&conv), (2, 2));
        assert_eq!(peak_at(&corr), (4, 4));
    }

    #[test]
    fn mul_conj_into_conjugates_rhs() {
        let a = vec![Complex::new(1.0, 1.0)];
        let b = vec![Complex::new(0.0, 2.0)];
        let mut out = vec![Complex::ZERO];
        mul_conj_into(&mut out, &a, &b);
        // (1+i) * conj(2i) = (1+i)(-2i) = -2i - 2i² = 2 - 2i
        assert_eq!(out[0], Complex::new(2.0, -2.0));
    }

    /// The split-plane products keep the interleaved products' bits,
    /// including the conjugated product's scale.
    #[test]
    fn split_products_match_interleaved_bits() {
        let bins = |seed: f32| -> Vec<Complex> {
            (0..37).map(|i| Complex::new((i as f32 * seed).sin(), (i as f32 * 0.7).cos())).collect()
        };
        let (a, b, acc) = (bins(0.31), bins(0.53), bins(0.97));
        let split =
            |v: &[Complex]| -> (Vec<f32>, Vec<f32>) { v.iter().map(|c| (c.re, c.im)).unzip() };
        let bits = |v: &[Complex]| -> Vec<(u32, u32)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let split_bits = |(re, im): &(Vec<f32>, Vec<f32>)| -> Vec<(u32, u32)> {
            re.iter().zip(im).map(|(r, i)| (r.to_bits(), i.to_bits())).collect()
        };
        let (sa, sb) = (split(&a), split(&b));
        let (sa, sb) = ((&sa.0[..], &sa.1[..]), (&sb.0[..], &sb.1[..]));

        let mut want = vec![Complex::ZERO; a.len()];
        mul_into(&mut want, &a, &b);
        let mut got = split(&acc);
        mul_split((&mut got.0, &mut got.1), sa, sb);
        assert_eq!(split_bits(&got), bits(&want));

        mul_conj_into(&mut want, &a, &b);
        mul_conj_split((&mut got.0, &mut got.1), sa, sb, 1.0);
        assert_eq!(split_bits(&got), bits(&want));

        let want: Vec<Complex> = want.iter().map(|c| c.scale(0.37)).collect();
        mul_conj_split((&mut got.0, &mut got.1), sa, sb, 0.37);
        assert_eq!(split_bits(&got), bits(&want));
    }
}
