//! Frequency-domain helpers shared by the lithography and ILT pipelines.
//!
//! The convolution convention used across the workspace is *cyclic*
//! convolution on the full clip raster. Optical kernels have compact support
//! (tens of pixels) while clips keep a dark margin wider than that support,
//! so cyclic wrap-around never influences printed geometry — this mirrors how
//! the ICCAD-2013 kit applies its kernels.
//!
//! Kernel spectra are stored in the packed `h × (w/2+1)` half-spectrum form
//! of [`RealFft2d`], as split real/imaginary planes: a complex kernel
//! `h = h_re + i·h_im` is split into its two real components, each with a
//! Hermitian spectrum, so every convolution against a real mask runs
//! entirely through the real-FFT engine. Components that vanish (at nominal
//! focus most SOCS kernels are near-pure real or near-pure imaginary) are
//! dropped, halving both storage and work.
//!
//! The products come in two forms with the same per-bin arithmetic: over
//! [`Complex`] bins (`mul_into`, `mul_conj_into`, `mul_conj_add_into`) and
//! over one row of split planes (`mul_split`, `mul_conj_split`,
//! `mul_conj_add_split`), the form the transforms' entry and exit moves
//! use.

use crate::{Complex, FftError, RealFft2d};

/// Element-wise product into a separate output: `out[i] = a[i] * b[i]`.
///
/// The allocation-free form used by the litho hot path, where `a` is a
/// shared mask spectrum that must survive for the next kernel.
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

/// Conjugated product accumulated into `out`: `out[i] += a[i] * conj(b[i])`.
///
/// With [`mul_conj_into`] this builds the Eq. (14) gradient spectrum
/// `W = P ⊙ conj(R) + Q ⊙ conj(I)` in a single pass per kernel component.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_conj_add_into(out: &mut [Complex], a: &[Complex], b: &[Complex]) {
    assert_eq!(out.len(), a.len(), "spectrum length mismatch");
    assert_eq!(a.len(), b.len(), "spectrum length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = o.mul_add(*x, y.conj());
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

/// [`mul_conj_add_into`] over one row of split planes, then a scale:
/// `out = (out + a ⊙ conj(b)) · s`, bin by bin.
///
/// # Panics
///
/// Panics if an operand row is shorter than `out`.
// lint: hot-path
pub fn mul_conj_add_split(out: SplitMut<'_>, a: Split<'_>, b: Split<'_>, s: f32) {
    let n = out.0.len();
    let (or, oi) = (out.0, &mut out.1[..n]);
    let (ar, ai, br, bi) = (&a.0[..n], &a.1[..n], &b.0[..n], &b.1[..n]);
    let bins = or.iter_mut().zip(oi).zip(ar).zip(ai).zip(br).zip(bi);
    for (((((or, oi), &ar), &ai), &br), &bi) in bins {
        let z = Complex::new(*or, *oi)
            .mul_add(Complex::new(ar, ai), Complex::new(br, bi).conj())
            .scale(s);
        (*or, *oi) = (z.re, z.im);
    }
}

/// Embeds a small centered kernel into a `height × width` frame so that the
/// kernel origin (its center tap) lands at index `(0, 0)` with cyclic
/// wrap-around — the layout required for FFT convolution to act as a
/// *centered* spatial filter.
///
/// `kernel` is row-major `ksize × ksize` and `ksize` must be odd and no
/// larger than either frame dimension.
///
/// # Panics
///
/// Panics if `kernel.len() != ksize * ksize`, if `ksize` is even, or if the
/// kernel does not fit in the frame.
fn embed_centered_kernel(
    kernel: &[Complex],
    ksize: usize,
    height: usize,
    width: usize,
) -> Vec<Complex> {
    assert_eq!(kernel.len(), ksize * ksize, "kernel buffer size mismatch");
    assert!(ksize % 2 == 1, "kernel size must be odd");
    assert!(ksize <= height && ksize <= width, "kernel larger than frame");
    let half = ksize / 2;
    let mut frame = vec![Complex::ZERO; height * width];
    for ky in 0..ksize {
        for kx in 0..ksize {
            // Tap offset relative to the kernel center, wrapped cyclically.
            let dy = (ky + height - half) % height;
            let dx = (kx + width - half) % width;
            frame[dy * width + dx] = kernel[ky * ksize + kx];
        }
    }
    frame
}

/// A component's magnitude must clear this fraction of the kernel's overall
/// peak to be stored; below it the component is f64→f32 rounding residue of
/// an analytically-zero part (the eigenvector flip parity at nominal focus)
/// and is dropped outright.
const COMPONENT_DROP_RATIO: f32 = 1e-6;

/// Precomputed half-spectra of a centered (possibly complex) kernel, ready
/// for repeated real-FFT convolutions against same-sized real fields.
///
/// The kernel is split as `h = h_re + i·h_im`; each real component is stored
/// as its packed Hermitian half-spectrum in split planes (`None` when the
/// component vanishes). For a real mask `M`, the convolved field is
/// `M ⊗ h = (M ⊗ h_re) + i·(M ⊗ h_im)`, two c2r inverse transforms — the
/// same FLOP count as one full complex inverse but with half the spectral
/// traffic, and half of everything when a component is absent.
#[derive(Debug, Clone)]
pub struct KernelSpectrum {
    /// Each component's real plane followed by its imaginary plane.
    re: Option<Vec<f32>>,
    im: Option<Vec<f32>>,
}

impl KernelSpectrum {
    /// Builds the half-spectra of a centered `ksize × ksize` kernel embedded
    /// in a `height × width` frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame dimensions are not powers of two (or
    /// `width < 2`).
    ///
    /// # Panics
    ///
    /// Panics if `kernel.len() != ksize * ksize`, if `ksize` is even, or if
    /// the kernel does not fit in the frame.
    pub fn new(
        kernel: &[Complex],
        ksize: usize,
        height: usize,
        width: usize,
    ) -> Result<Self, FftError> {
        let plan = RealFft2d::new(height, width)?;
        let frame = embed_centered_kernel(kernel, ksize, height, width);
        let peak = frame.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0f32, f32::max);
        let cutoff = peak * COMPONENT_DROP_RATIO;
        let component = |extract: fn(&Complex) -> f32| -> Option<Vec<f32>> {
            let field: Vec<f32> = frame.iter().map(extract).collect();
            if field.iter().all(|v| v.abs() <= cutoff) {
                return None;
            }
            let mut planes = vec![0.0f32; 2 * plan.spectrum_len()];
            let (dst_re, dst_im) = planes.split_at_mut(plan.spectrum_len());
            plan.forward_with(
                |tile| tile.pack(&field),
                |re, im| {
                    dst_re.copy_from_slice(re);
                    dst_im.copy_from_slice(im);
                },
            );
            Some(planes)
        };
        Ok(KernelSpectrum { re: component(|c| c.re), im: component(|c| c.im) })
    }

    /// Split-plane half-spectrum `(real parts, imaginary parts)` of the
    /// kernel's real component, if nonzero.
    #[inline]
    pub fn re_spectrum(&self) -> Option<Split<'_>> {
        self.re.as_deref().map(|p| p.split_at(p.len() / 2))
    }

    /// Split-plane half-spectrum `(real parts, imaginary parts)` of the
    /// kernel's imaginary component, if nonzero.
    #[inline]
    pub fn im_spectrum(&self) -> Option<Split<'_>> {
        self.im.as_deref().map(|p| p.split_at(p.len() / 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Filters a real field with one kernel component the way the litho
    /// model does: forward transform into split planes, then the inverse
    /// entered by the spectral product (`product` is [`mul_split`] for
    /// convolution, [`mul_conj_split`] at unit scale for correlation) and
    /// left by unpacking.
    fn filter(
        plan: &RealFft2d,
        field: &[f32],
        component: Split<'_>,
        product: fn(SplitMut<'_>, Split<'_>, Split<'_>),
    ) -> Vec<f32> {
        let n = plan.spectrum_len();
        let (mut spec_re, mut spec_im) = (vec![0.0f32; n], vec![0.0f32; n]);
        plan.forward_with(
            |tile| tile.pack(field),
            |re, im| {
                spec_re.copy_from_slice(re);
                spec_im.copy_from_slice(im);
            },
        );
        let hw = plan.half_width();
        fn row<'a>((re, im): Split<'a>, ky: usize, hw: usize) -> Split<'a> {
            (&re[ky * hw..][..hw], &im[ky * hw..][..hw])
        }
        let mut out = vec![0.0f32; plan.real_len()];
        plan.inverse_with(
            |ky, re, im| {
                product((re, im), row((&spec_re, &spec_im), ky, hw), row(component, ky, hw))
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
        let kernel = {
            let mut k = vec![Complex::ZERO; 9];
            k[4] = Complex::ONE; // center tap of a 3x3 kernel
            k
        };
        let spec = KernelSpectrum::new(&kernel, 3, h, w).unwrap();
        assert!(spec.im_spectrum().is_none(), "real kernel must drop its imaginary half");
        let plan = RealFft2d::new(h, w).unwrap();
        let field: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
        let out = filter(&plan, &field, spec.re_spectrum().unwrap(), mul_split);
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
        let spec = KernelSpectrum::new(&kernel, ksize, h, w).unwrap();
        let plan = RealFft2d::new(h, w).unwrap();
        let re = filter(&plan, &field, spec.re_spectrum().unwrap(), mul_split);
        let im = filter(&plan, &field, spec.im_spectrum().unwrap(), mul_split);
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
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[0] = Complex::from_real(1.0); // top-left tap of a 3x3 kernel
        let spec = KernelSpectrum::new(&kernel, 3, h, w).unwrap();
        let plan = RealFft2d::new(h, w).unwrap();
        let mut field = vec![0.0f32; h * w];
        field[3 * w + 3] = 1.0;

        let re = spec.re_spectrum().unwrap();
        let conv = filter(&plan, &field, re, mul_split);
        let corr = filter(&plan, &field, re, correlate);
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
    fn embed_rejects_even_kernel() {
        let kernel = vec![Complex::ZERO; 16];
        let result = std::panic::catch_unwind(|| embed_centered_kernel(&kernel, 4, 8, 8));
        assert!(result.is_err());
    }

    #[test]
    fn embed_places_center_at_origin() {
        let mut kernel = vec![Complex::ZERO; 9];
        kernel[4] = Complex::from_real(7.0);
        let frame = embed_centered_kernel(&kernel, 3, 8, 8);
        assert_eq!(frame[0], Complex::from_real(7.0));
        assert_eq!(frame.iter().filter(|c| c.abs() > 0.0).count(), 1);
    }

    #[test]
    fn mul_conj_into_conjugates_rhs() {
        let a = vec![Complex::new(1.0, 1.0)];
        let b = vec![Complex::new(0.0, 2.0)];
        let mut out = vec![Complex::ZERO];
        mul_conj_into(&mut out, &a, &b);
        // (1+i) * conj(2i) = (1+i)(-2i) = -2i - 2i² = 2 - 2i
        assert_eq!(out[0], Complex::new(2.0, -2.0));
        // The accumulating form adds the same product on top.
        mul_conj_add_into(&mut out, &a, &b);
        assert_eq!(out[0], Complex::new(4.0, -4.0));
    }

    /// The split-plane products keep the interleaved products' bits,
    /// including the conjugated product's unit scale.
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

        let mut want = acc.clone();
        mul_conj_add_into(&mut want, &a, &b);
        let want: Vec<Complex> = want.iter().map(|c| c.scale(0.37)).collect();
        let mut got = split(&acc);
        mul_conj_add_split((&mut got.0, &mut got.1), sa, sb, 0.37);
        assert_eq!(split_bits(&got), bits(&want));
    }
}
