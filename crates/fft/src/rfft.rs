//! Real-input 2-D FFT over a packed Hermitian half-spectrum.
//!
//! The spectrum of a real `h × w` image satisfies `X[ky, kx] =
//! conj(X[(h-ky)%h, (w-kx)%w])`, so columns `kx = w/2+1 .. w` are redundant.
//! [`RealFft2d`] stores only the `h × (w/2+1)` half-spectrum and computes the
//! row pass with a half-length complex FFT (two real samples packed per
//! complex slot), roughly halving both FLOPs and memory traffic relative to
//! running the full complex transform on real data. This is the engine under
//! every lithography convolution: mask spectra, SOCS kernel spectra and the
//! Eq. (14) gradient all live in packed half-spectrum form.
//!
//! Layout: row-major `h` rows of `w/2 + 1` entries; `out[ky * (w/2+1) + kx]`
//! holds `X[ky, kx]` for `kx = 0 ..= w/2`. The two boundary columns `kx = 0`
//! and `kx = w/2` (DC and Nyquist) are self-conjugate along `ky`:
//! `X[ky, b] = conj(X[(h-ky)%h, b])`.

use crate::{Complex, Direction, Fft1d, FftError};

/// Tile edge for the blocked transpose. 32 complex values per row of a tile
/// is 256 bytes — four cache lines — so a 32×32 tile streams through L1
/// while both the read and the write side stay within a handful of pages.
const TRANSPOSE_BLOCK: usize = 32;

/// Transposes a row-major `rows × cols` matrix into `dst` (`cols × rows`),
/// walking tile-by-tile so both sides of the copy stay cache-resident.
fn transpose_into(src: &[Complex], dst: &mut [Complex], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for y0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
        let y1 = (y0 + TRANSPOSE_BLOCK).min(rows);
        for x0 in (0..cols).step_by(TRANSPOSE_BLOCK) {
            let x1 = (x0 + TRANSPOSE_BLOCK).min(cols);
            for y in y0..y1 {
                for x in x0..x1 {
                    dst[x * rows + y] = src[y * cols + x];
                }
            }
        }
    }
}

/// A planned real-input 2-D FFT producing/consuming the packed
/// `h × (w/2+1)` half-spectrum.
///
/// ```
/// use ganopc_fft::RealFft2d;
/// # fn main() -> Result<(), ganopc_fft::FftError> {
/// let plan = RealFft2d::new(4, 8)?;
/// let image: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
/// let mut half = vec![ganopc_fft::Complex::ZERO; plan.spectrum_len()];
/// let mut scratch = Vec::new();
/// plan.forward(&image, &mut half, &mut scratch)?;
/// let mut back = vec![0.0f32; 32];
/// plan.inverse(&mut half, &mut back, &mut scratch)?;
/// for (a, b) in back.iter().zip(&image) {
///     assert!((a - b).abs() < 1e-4);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft2d {
    height: usize,
    width: usize,
    half_width: usize,
    /// Half-length (`w/2`) plan for the packed row pass.
    row_plan: Fft1d,
    /// Full-height plan for the column pass over the half-spectrum.
    col_plan: Fft1d,
    /// Untangling twiddles `e^{-2πik/w}` for `k = 0 ..= w/2`.
    tw: Vec<Complex>,
}

impl RealFft2d {
    /// Plans a real 2-D transform for a `height × width` grid.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidLength`] unless both dimensions are powers
    /// of two and `width >= 2` (the packed row pass needs at least one
    /// complex slot per row).
    pub fn new(height: usize, width: usize) -> Result<Self, FftError> {
        if width < 2 {
            return Err(FftError::InvalidLength(width));
        }
        if !crate::is_power_of_two(height) || !crate::is_power_of_two(width) {
            return Err(FftError::InvalidLength(if crate::is_power_of_two(height) {
                width
            } else {
                height
            }));
        }
        let half = width / 2;
        let row_plan = Fft1d::new(half)?;
        let col_plan = Fft1d::new(height)?;
        let tw = (0..=half)
            .map(|k| Complex::cis(-2.0 * std::f32::consts::PI * k as f32 / width as f32))
            .collect();
        Ok(RealFft2d { height, width, half_width: half + 1, row_plan, col_plan, tw })
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid width of the *real* domain (number of columns before packing).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored spectrum columns, `width/2 + 1`.
    #[inline]
    pub fn half_width(&self) -> usize {
        self.half_width
    }

    /// Real-domain buffer length `height * width`.
    #[inline]
    pub fn real_len(&self) -> usize {
        self.height * self.width
    }

    /// Packed half-spectrum buffer length `height * (width/2 + 1)`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.height * self.half_width
    }

    fn check(&self, real_len: usize, spec_len: usize) -> Result<(), FftError> {
        if real_len != self.real_len() {
            return Err(FftError::SizeMismatch { expected: self.real_len(), actual: real_len });
        }
        if spec_len != self.spectrum_len() {
            return Err(FftError::SizeMismatch { expected: self.spectrum_len(), actual: spec_len });
        }
        Ok(())
    }

    /// Forward transform: real `height × width` image → packed half-spectrum
    /// (unnormalized, the [`Direction::Forward`] convention).
    ///
    /// `scratch` is grown to `spectrum_len()` once and then reused; steady
    /// state performs zero heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn forward(
        &self,
        real: &[f32],
        out: &mut [Complex],
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(real.len(), out.len())?;
        let (h, hw) = (self.height, self.half_width);
        let m = self.width / 2;
        scratch.resize(h * hw, Complex::ZERO);

        // Row pass: pack two real samples per complex slot, half-length FFT,
        // then untangle into the m+1 stored bins.
        for (src, row) in real.chunks_exact(self.width).zip(out.chunks_exact_mut(hw)) {
            for (z, pair) in row[..m].iter_mut().zip(src.chunks_exact(2)) {
                *z = Complex::new(pair[0], pair[1]);
            }
            self.row_plan.transform_unchecked(&mut row[..m], Direction::Forward);
            self.untangle_row(row);
        }

        // Column pass: every stored column gets a full-height complex FFT,
        // run contiguously through a pair of blocked transposes.
        transpose_into(out, scratch, h, hw);
        for col in scratch.chunks_exact_mut(h) {
            self.col_plan.transform_unchecked(col, Direction::Forward);
        }
        transpose_into(scratch, out, hw, h);
        Ok(())
    }

    /// Inverse transform: packed half-spectrum → real image, normalized by
    /// `1/(height·width)` so `inverse(forward(x)) == x` up to rounding.
    ///
    /// Destroys the contents of `half` (it is used as working storage). The
    /// input is assumed Hermitian-consistent, i.e. in the range of
    /// [`RealFft2d::forward`] — true for any product of half-spectra of real
    /// fields, which is all the litho stack produces.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn inverse(
        &self,
        half: &mut [Complex],
        out: &mut [f32],
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(out.len(), half.len())?;
        let (h, hw) = (self.height, self.half_width);
        let m = self.width / 2;
        scratch.resize(h * hw, Complex::ZERO);

        // Column pass first (reverse of forward): inverse FFT down every
        // stored column, carrying the 1/h normalization.
        transpose_into(half, scratch, h, hw);
        for col in scratch.chunks_exact_mut(h) {
            self.col_plan.transform_unchecked(col, Direction::Inverse);
        }
        transpose_into(scratch, half, hw, h);

        // Row pass: tangle the m+1 bins back into a half-length complex
        // sequence, inverse FFT (1/m), unpack interleaved real samples. The
        // two 1/2 factors hidden in the tangle make 1/(h·m) the exact overall
        // 1/(h·w) normalization.
        for (row, dst) in half.chunks_exact_mut(hw).zip(out.chunks_exact_mut(self.width)) {
            self.tangle_row(row);
            self.row_plan.transform_unchecked(&mut row[..m], Direction::Inverse);
            for (z, pair) in row[..m].iter().zip(dst.chunks_exact_mut(2)) {
                pair[0] = z.re;
                pair[1] = z.im;
            }
        }
        Ok(())
    }

    /// Adjoint of [`RealFft2d::forward`]: maps an *arbitrary* packed
    /// half-spectrum `Y` (not necessarily Hermitian-consistent) to the real
    /// image `A(Y)[n] = Re Σ_k Y[k]·e^{+2πi⟨k,n⟩}`, the transpose of the
    /// forward operator under the real inner product `⟨U,V⟩ = Σ Re(U·conj(V))`.
    ///
    /// Gradients of losses expressed on the packed spectrum pull back through
    /// this map. Destroys the contents of `half`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn adjoint(
        &self,
        half: &mut [Complex],
        out: &mut [f32],
        scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(out.len(), half.len())?;
        let (h, hw) = (self.height, self.half_width);
        let m = self.width / 2;
        // Interior columns 0 < kx < m are counted twice by the implicit
        // mirror of the Hermitian inverse, so they enter at half weight;
        // the self-mirrored boundary columns are instead projected onto
        // their Hermitian (along ky) part.
        for row in half.chunks_exact_mut(hw) {
            for v in &mut row[1..m] {
                *v = v.scale(0.5);
            }
        }
        for b in [0, m] {
            for ky in 0..=(h / 2) {
                let ky2 = (h - ky) % h;
                if ky2 < ky {
                    continue;
                }
                let a = half[ky * hw + b];
                let c = half[ky2 * hw + b];
                half[ky * hw + b] = (a + c.conj()).scale(0.5);
                half[ky2 * hw + b] = (c + a.conj()).scale(0.5);
            }
        }
        // The symmetrized spectrum lies in the range of `forward`, where the
        // inverse is exact; undo its 1/N normalization.
        self.inverse(half, out, scratch)?;
        let n = (h * self.width) as f32;
        for v in out.iter_mut() {
            *v *= n;
        }
        Ok(())
    }

    /// Untangles one packed row in place: on entry `row[0..m]` holds the
    /// half-length FFT `Z` of the packed samples; on exit `row[0..=m]` holds
    /// the real-input spectrum bins `X[0..=m]`.
    // lint: hot-path
    fn untangle_row(&self, row: &mut [Complex]) {
        let m = self.width / 2;
        let z0 = row[0];
        let mut k = 1;
        while 2 * k < m {
            let zk = row[k];
            let zmk = row[m - k];
            let e = (zk + zmk.conj()).scale(0.5);
            let d = zk - zmk.conj();
            // o = -i/2 · d
            let o = Complex::new(0.5 * d.im, -0.5 * d.re);
            row[k] = e + self.tw[k] * o;
            row[m - k] = e.conj() + self.tw[m - k] * o.conj();
            k += 1;
        }
        if m >= 2 {
            row[m / 2] = row[m / 2].conj();
        }
        row[m] = Complex::new(z0.re - z0.im, 0.0);
        row[0] = Complex::new(z0.re + z0.im, 0.0);
    }

    /// Tangles one spectrum row in place: on entry `row[0..=m]` holds bins
    /// `X[0..=m]`; on exit `row[0..m]` holds the half-length sequence whose
    /// inverse FFT yields the packed real samples.
    // lint: hot-path
    fn tangle_row(&self, row: &mut [Complex]) {
        let m = self.width / 2;
        // General (complex-boundary-safe) tangle so the adjoint path may feed
        // symmetrized but non-real DC/Nyquist entries through the same code.
        let x0 = row[0];
        let xm = row[m];
        let e0 = (x0 + xm.conj()).scale(0.5);
        let o0 = (x0 - xm.conj()).scale(0.5);
        row[0] = Complex::new(e0.re - o0.im, e0.im + o0.re); // e0 + i·o0
        let mut k = 1;
        while 2 * k < m {
            let xk = row[k];
            let xmk = row[m - k];
            let e = (xk + xmk.conj()).scale(0.5);
            let t = (xk - xmk.conj()).scale(0.5);
            let o = t * self.tw[k].conj();
            row[k] = Complex::new(e.re - o.im, e.im + o.re); // e + i·o
            let (ec, oc) = (e.conj(), o.conj());
            row[m - k] = Complex::new(ec.re - oc.im, ec.im + oc.re);
            k += 1;
        }
        if m >= 2 {
            let x = row[m / 2];
            let e = (x + x.conj()).scale(0.5);
            let o = (x - x.conj()).scale(0.5) * self.tw[m / 2].conj();
            row[m / 2] = Complex::new(e.re - o.im, e.im + o.re);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(h: usize, w: usize) -> Vec<f32> {
        (0..h * w)
            .map(|i| {
                let y = (i / w) as f32;
                let x = (i % w) as f32;
                (0.37 * x - 0.19 * y).sin() + 0.25 * (0.05 * x * y).cos()
            })
            .collect()
    }

    #[test]
    fn rejects_bad_dims() {
        assert!(RealFft2d::new(8, 1).is_err());
        assert!(RealFft2d::new(3, 8).is_err());
        assert!(RealFft2d::new(8, 12).is_err());
        assert!(RealFft2d::new(1, 2).is_ok());
        assert!(RealFft2d::new(8, 8).is_ok());
    }

    /// Separable 2-D DFT of a real image in f64 — rows, then columns — the
    /// reference the packed transform is checked against.
    fn naive_dft2(img: &[f32], h: usize, w: usize) -> Vec<(f64, f64)> {
        let dft = |input: &[(f64, f64)]| -> Vec<(f64, f64)> {
            let n = input.len();
            (0..n)
                .map(|k| {
                    input.iter().enumerate().fold((0.0, 0.0), |(re, im), (j, &(xr, xi))| {
                        let theta = -2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
                        let (s, c) = theta.sin_cos();
                        (re + xr * c - xi * s, im + xr * s + xi * c)
                    })
                })
                .collect()
        };
        let mut full: Vec<(f64, f64)> = Vec::with_capacity(h * w);
        for row in img.chunks_exact(w) {
            full.extend(dft(&row.iter().map(|&v| (v as f64, 0.0)).collect::<Vec<_>>()));
        }
        for x in 0..w {
            let col = dft(&(0..h).map(|y| full[y * w + x]).collect::<Vec<_>>());
            for (y, v) in col.into_iter().enumerate() {
                full[y * w + x] = v;
            }
        }
        full
    }

    #[test]
    fn forward_matches_separable_naive_dft() {
        for (h, w) in [(1usize, 2usize), (1, 8), (4, 2), (2, 16), (16, 4), (8, 8), (16, 32)] {
            let plan = RealFft2d::new(h, w).unwrap();
            let img = image(h, w);
            let mut half = vec![Complex::ZERO; plan.spectrum_len()];
            let mut scratch = Vec::new();
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            let reference = naive_dft2(&img, h, w);
            let hw = plan.half_width();
            for ky in 0..h {
                for kx in 0..hw {
                    let got = half[ky * hw + kx];
                    let (re, im) = reference[ky * w + kx];
                    let tol = 1e-4 * (h * w) as f64;
                    assert!((got.re as f64 - re).abs() < tol, "{h}x{w} bin ({ky},{kx})");
                    assert!((got.im as f64 - im).abs() < tol, "{h}x{w} bin ({ky},{kx})");
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip_rectangular() {
        for (r, c) in [(1usize, 64usize), (64, 1), (8, 8), (33, 70), (128, 32)] {
            let src: Vec<Complex> =
                (0..r * c).map(|i| Complex::new(i as f32, -(i as f32) * 0.5)).collect();
            let mut t = vec![Complex::ZERO; r * c];
            let mut back = vec![Complex::ZERO; r * c];
            transpose_into(&src, &mut t, r, c);
            for y in 0..r {
                for x in 0..c {
                    assert_eq!(t[x * r + y], src[y * c + x]);
                }
            }
            transpose_into(&t, &mut back, c, r);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn boundary_columns_are_self_conjugate() {
        let (h, w) = (8usize, 16usize);
        let plan = RealFft2d::new(h, w).unwrap();
        let img = image(h, w);
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        let hw = plan.half_width();
        for b in [0, w / 2] {
            for ky in 0..h {
                let a = half[ky * hw + b];
                let c = half[((h - ky) % h) * hw + b].conj();
                assert!((a.re - c.re).abs() < 1e-3 && (a.im - c.im).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for (h, w) in [(1usize, 2usize), (2, 2), (4, 16), (16, 4), (32, 32)] {
            let plan = RealFft2d::new(h, w).unwrap();
            let img = image(h, w);
            let mut half = vec![Complex::ZERO; plan.spectrum_len()];
            let mut out = vec![0.0f32; h * w];
            let mut scratch = Vec::new();
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
            for (a, b) in out.iter().zip(&img) {
                assert!((a - b).abs() < 1e-4, "{h}x{w}");
            }
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        // ⟨F x, Y⟩ = ⟨x, Aᵀ Y⟩ under the real inner product, for arbitrary
        // (non-Hermitian) packed Y.
        let (h, w) = (8usize, 16usize);
        let plan = RealFft2d::new(h, w).unwrap();
        let x = image(h, w);
        let mut fx = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        plan.forward(&x, &mut fx, &mut scratch).unwrap();

        let mut y: Vec<Complex> = (0..plan.spectrum_len())
            .map(|i| {
                Complex::new(((i * 13 % 31) as f32) / 31.0 - 0.5, ((i * 7 % 17) as f32) / 17.0)
            })
            .collect();
        let lhs: f64 = fx
            .iter()
            .zip(&y)
            .map(|(a, b)| (a.re as f64) * (b.re as f64) + (a.im as f64) * (b.im as f64))
            .sum();

        let mut ay = vec![0.0f32; h * w];
        plan.adjoint(&mut y, &mut ay, &mut scratch).unwrap();
        let rhs: f64 = x.iter().zip(&ay).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn scratch_reused_across_calls() {
        let plan = RealFft2d::new(16, 16).unwrap();
        let img = image(16, 16);
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f32; 256];
        let mut scratch = Vec::new();
        plan.forward(&img, &mut half, &mut scratch).unwrap();
        let cap = scratch.capacity();
        for _ in 0..3 {
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
        }
        assert_eq!(scratch.capacity(), cap);
    }
}
