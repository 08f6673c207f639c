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
//!
//! Both passes run as batches over split real/imaginary `f32` planes, so
//! every butterfly vectorizes across lanes. The forward transform packs the
//! image into a *tile* whose lanes are the image rows, runs all `h` row FFTs
//! as one batch, untangles across lanes, transposes into *column planes*
//! whose lanes are the `w/2 + 1` stored columns, runs the column pass as one
//! batch and interleaves into the output; the inverse runs the same steps
//! backwards. Each element goes through the same floating-point operations,
//! in the same order, as transforming one row and one column at a time. The
//! planes live in per-thread storage grown to the largest plan the thread
//! has run, so a transform allocates nothing once its thread has run one at
//! least this large.

use crate::{Complex, Direction, Fft1d, FftError};
use std::cell::RefCell;

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
    /// Works in this thread's split-plane working storage (see the module
    /// docs), so it allocates nothing once its thread has run a transform
    /// at least this large. `_scratch` is unused: it is never read or
    /// grown, and stays only for source compatibility with existing callers.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn forward(
        &self,
        real: &[f32],
        out: &mut [Complex],
        _scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(real.len(), out.len())?;
        let (h, hw, m) = (self.height, self.half_width, self.width / 2);
        let ld = h + TILE_PAD;
        self.with_planes(|[tile_re, tile_im, col_re, col_im]| {
            // Row pass: pack two real samples per complex slot, transposed so
            // image row y is tile lane y; run every half-length row FFT as one
            // batch; untangle the m+1 stored bins across lanes.
            pack_rows(real, self.width, tile_re, tile_im, ld);
            self.row_plan.transform_lanes(
                &mut tile_re[..m * ld],
                &mut tile_im[..m * ld],
                ld,
                h,
                Direction::Forward,
            );
            self.untangle_lanes(tile_re, tile_im, ld);

            // Column pass: transpose so stored column kx is lane kx, then one
            // batched full-height FFT over all w/2+1 lanes.
            transpose(tile_re, ld, col_re, hw, hw, h);
            transpose(tile_im, ld, col_im, hw, hw, h);
            self.col_plan.transform_lanes(col_re, col_im, hw, hw, Direction::Forward);
            for ((o, &re), &im) in out.iter_mut().zip(col_re.iter()).zip(col_im.iter()) {
                *o = Complex::new(re, im);
            }
        });
        Ok(())
    }

    /// Inverse transform: packed half-spectrum → real image, normalized by
    /// `1/(height·width)` so `inverse(forward(x)) == x` up to rounding.
    ///
    /// The input is assumed Hermitian-consistent, i.e. in the range of
    /// [`RealFft2d::forward`] — true for any product of half-spectra of real
    /// fields, which is all the litho stack produces. `half` is only read;
    /// it stays `&mut` for source compatibility. Allocates nothing once its
    /// thread has run a transform at least this large, and `_scratch` is
    /// unused, as in [`RealFft2d::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] on buffer-length mismatch.
    // lint: hot-path
    pub fn inverse(
        &self,
        half: &mut [Complex],
        out: &mut [f32],
        _scratch: &mut Vec<Complex>,
    ) -> Result<(), FftError> {
        self.check(out.len(), half.len())?;
        let (h, hw, m) = (self.height, self.half_width, self.width / 2);
        let ld = h + TILE_PAD;
        self.with_planes(|[tile_re, tile_im, col_re, col_im]| {
            // Column pass first (reverse of forward): split the planes, then
            // one batched inverse FFT down every stored column, carrying the
            // 1/h normalization.
            for ((re, im), z) in col_re.iter_mut().zip(col_im.iter_mut()).zip(half.iter()) {
                (*re, *im) = (z.re, z.im);
            }
            self.col_plan.transform_lanes(col_re, col_im, hw, hw, Direction::Inverse);

            // Row pass: transpose so image row y is tile lane y, tangle the
            // m+1 bins back into a half-length complex sequence across lanes,
            // one batched inverse FFT (1/m), then unpack the interleaved real
            // samples. The two 1/2 factors hidden in the tangle make 1/(h·m)
            // the exact overall 1/(h·w) normalization.
            transpose(col_re, hw, tile_re, ld, h, hw);
            transpose(col_im, hw, tile_im, ld, h, hw);
            self.tangle_lanes(tile_re, tile_im, ld);
            self.row_plan.transform_lanes(
                &mut tile_re[..m * ld],
                &mut tile_im[..m * ld],
                ld,
                h,
                Direction::Inverse,
            );
            unpack_rows(tile_re, tile_im, ld, out, self.width);
        });
        Ok(())
    }

    /// Runs `f` on this thread's working planes, sized for this plan: the
    /// tile's real and imaginary planes, `(w/2+1) × (h + TILE_PAD)` floats
    /// each, then the two column planes, `h × (w/2+1)` each.
    fn with_planes<R>(&self, f: impl FnOnce([&mut [f32]; 4]) -> R) -> R {
        let (tile, cols) = (self.half_width * (self.height + TILE_PAD), self.spectrum_len());
        PLANES.with(|cell| {
            let mut planes = cell.borrow_mut();
            if planes.len() < 2 * (tile + cols) {
                // ALLOC: one-time growth of this thread's persistent working
                // planes; steady-state transforms reuse them.
                planes.resize(2 * (tile + cols), 0.0);
            }
            let (tile_re, rest) = planes.split_at_mut(tile);
            let (tile_im, rest) = rest.split_at_mut(tile);
            let (col_re, rest) = rest.split_at_mut(cols);
            f([tile_re, tile_im, col_re, &mut rest[..cols]])
        })
    }

    /// Untangles the row FFTs across lanes: on entry tile row `k < m` holds
    /// bin `k` of every image row's half-length FFT `Z`; on exit tile rows
    /// `0..=m` hold the real-input spectrum bins `X[0..=m]`. Each lane goes
    /// through the arithmetic of untangling its row alone.
    // lint: hot-path
    fn untangle_lanes(&self, re: &mut [f32], im: &mut [f32], ld: usize) {
        let (lanes, m) = (self.height, self.width / 2);
        let mut k = 1;
        while 2 * k < m {
            let (rk, rmk) = two_rows(re, k, m - k, ld, lanes);
            let (ik, imk) = two_rows(im, k, m - k, ld, lanes);
            untangle_pair((self.tw[k], self.tw[m - k]), rk, ik, rmk, imk);
            k += 1;
        }
        if m >= 2 {
            for v in &mut im[m / 2 * ld..][..lanes] {
                *v = -*v;
            }
        }
        let (r0, rm) = two_rows(re, 0, m, ld, lanes);
        let (i0, im_) = two_rows(im, 0, m, ld, lanes);
        untangle_edges(r0, i0, rm, im_);
    }

    /// Tangles spectrum rows across lanes: on entry tile rows `0..=m` hold
    /// bins `X[0..=m]` of every image row; on exit rows `0..m` hold the
    /// half-length sequences whose inverse FFTs yield the packed real
    /// samples. Each lane goes through the arithmetic of tangling its row
    /// alone.
    // lint: hot-path
    fn tangle_lanes(&self, re: &mut [f32], im: &mut [f32], ld: usize) {
        let (lanes, m) = (self.height, self.width / 2);
        let (r0, rm) = two_rows(re, 0, m, ld, lanes);
        let (i0, im_) = two_rows(im, 0, m, ld, lanes);
        tangle_edges(r0, i0, rm, im_);
        let mut k = 1;
        while 2 * k < m {
            let (rk, rmk) = two_rows(re, k, m - k, ld, lanes);
            let (ik, imk) = two_rows(im, k, m - k, ld, lanes);
            tangle_pair(self.tw[k].conj(), rk, ik, rmk, imk);
            k += 1;
        }
        if m >= 2 {
            let a = m / 2 * ld;
            tangle_middle(self.tw[m / 2].conj(), &mut re[a..][..lanes], &mut im[a..][..lanes]);
        }
    }
}

/// Extra lanes in each tile row. With a lane stride of exactly the image
/// height, a power of two, the tile's rows map onto the same few L1 sets
/// and the transposes into and out of the tile thrash.
const TILE_PAD: usize = 8;

thread_local! {
    /// This thread's working planes for [`RealFft2d`], grown to the largest
    /// plan the thread has run. Crew workers are persistent, so each grows
    /// once per process.
    static PLANES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows `a < b` of a plane with row stride `ld`, `lanes` floats each.
fn two_rows(
    plane: &mut [f32],
    a: usize,
    b: usize,
    ld: usize,
    lanes: usize,
) -> (&mut [f32], &mut [f32]) {
    let (head, tail) = plane.split_at_mut(b * ld);
    (&mut head[a * ld..][..lanes], &mut tail[..lanes])
}

// The lane loops below are free functions whose rows arrive as distinct
// `&mut [f32]` arguments. Every row a transform touches is carved out of
// one thread-local `Vec`. A loop that takes two rows of one plane through
// `two_rows` itself cannot tell them apart, so LLVM guards its vector body
// with an alias check. For a row pair `k`, `m − k` that check is hoisted
// out of the `k` loop as one flag, which is always set because the two
// rows move in opposite directions, and every pair ran the scalar
// fallback. Rows that arrive as arguments are `noalias`, which survives
// inlining, so the vector body runs unguarded. The per-lane arithmetic is
// exactly that of untangling or tangling one row.

/// Untangles bins `k` and `m − k` (real parts `rk`, `rmk`, imaginary parts
/// `ik`, `imk`) of every lane, with the twiddles `(tw[k], tw[m − k])`.
// lint: hot-path
fn untangle_pair(
    (tk, tmk): (Complex, Complex),
    rk: &mut [f32],
    ik: &mut [f32],
    rmk: &mut [f32],
    imk: &mut [f32],
) {
    let lanes = rk.len();
    let (ik, rmk, imk) = (&mut ik[..lanes], &mut rmk[..lanes], &mut imk[..lanes]);
    for l in 0..lanes {
        let zk = Complex::new(rk[l], ik[l]);
        let zmk = Complex::new(rmk[l], imk[l]);
        let e = (zk + zmk.conj()).scale(0.5);
        let d = zk - zmk.conj();
        // o = -i/2 · d
        let o = Complex::new(0.5 * d.im, -0.5 * d.re);
        let xk = e + tk * o;
        let xmk = e.conj() + tmk * o.conj();
        (rk[l], ik[l]) = (xk.re, xk.im);
        (rmk[l], imk[l]) = (xmk.re, xmk.im);
    }
}

/// Untangles the DC bin `(r0, i0)` of every lane into the real DC and
/// Nyquist bins, the latter written to `(rm, im)`.
// lint: hot-path
fn untangle_edges(r0: &mut [f32], i0: &mut [f32], rm: &mut [f32], im: &mut [f32]) {
    let lanes = r0.len();
    let (i0, rm, im) = (&mut i0[..lanes], &mut rm[..lanes], &mut im[..lanes]);
    for l in 0..lanes {
        let z0 = Complex::new(r0[l], i0[l]);
        (rm[l], im[l]) = (z0.re - z0.im, 0.0);
        (r0[l], i0[l]) = (z0.re + z0.im, 0.0);
    }
}

/// Tangles the DC and Nyquist bins `(r0, i0)`, `(rm, im)` of every lane
/// into slot 0. General: it does not assume the two bins are real, and
/// the inverse's output bits depend on exactly this arithmetic.
// lint: hot-path
fn tangle_edges(r0: &mut [f32], i0: &mut [f32], rm: &[f32], im: &[f32]) {
    let lanes = r0.len();
    let (i0, rm, im) = (&mut i0[..lanes], &rm[..lanes], &im[..lanes]);
    for l in 0..lanes {
        let x0 = Complex::new(r0[l], i0[l]);
        let xm = Complex::new(rm[l], im[l]);
        let e0 = (x0 + xm.conj()).scale(0.5);
        let o0 = (x0 - xm.conj()).scale(0.5);
        (r0[l], i0[l]) = (e0.re - o0.im, e0.im + o0.re); // e0 + i·o0
    }
}

/// Tangles bins `k` and `m − k` of every lane with `twc = conj(tw[k])`.
// lint: hot-path
fn tangle_pair(twc: Complex, rk: &mut [f32], ik: &mut [f32], rmk: &mut [f32], imk: &mut [f32]) {
    let lanes = rk.len();
    let (ik, rmk, imk) = (&mut ik[..lanes], &mut rmk[..lanes], &mut imk[..lanes]);
    for l in 0..lanes {
        let xk = Complex::new(rk[l], ik[l]);
        let xmk = Complex::new(rmk[l], imk[l]);
        let e = (xk + xmk.conj()).scale(0.5);
        let t = (xk - xmk.conj()).scale(0.5);
        let o = t * twc;
        (rk[l], ik[l]) = (e.re - o.im, e.im + o.re); // e + i·o
        let (ec, oc) = (e.conj(), o.conj());
        (rmk[l], imk[l]) = (ec.re - oc.im, ec.im + oc.re);
    }
}

/// Tangles the self-paired bin `m/2` of every lane with
/// `twc = conj(tw[m/2])`.
// lint: hot-path
fn tangle_middle(twc: Complex, re: &mut [f32], im: &mut [f32]) {
    for (r, i) in re.iter_mut().zip(im.iter_mut()) {
        let x = Complex::new(*r, *i);
        let e = (x + x.conj()).scale(0.5);
        let o = (x - x.conj()).scale(0.5) * twc;
        (*r, *i) = (e.re - o.im, e.im + o.re);
    }
}

/// Image rows the packing transposes move per block: the block's source
/// rows stay in L1 while every tile row gets one contiguous run of lanes.
const PACK_ROWS: usize = 16;

/// Packs a real `h × w` image into split tile planes of row stride `ld`,
/// transposed so image row `y` becomes lane `y`: sample pair `j` of row `y`
/// lands at `(re, im)[j * ld + y]`.
// lint: hot-path
fn pack_rows(real: &[f32], w: usize, re: &mut [f32], im: &mut [f32], ld: usize) {
    for (block, rows) in real.chunks(PACK_ROWS * w).enumerate() {
        let (y0, n) = (block * PACK_ROWS, rows.len() / w);
        for j in 0..w / 2 {
            let (re, im) = (&mut re[j * ld + y0..][..n], &mut im[j * ld + y0..][..n]);
            for ((r, i), src) in re.iter_mut().zip(im.iter_mut()).zip(rows.chunks_exact(w)) {
                (*r, *i) = (src[2 * j], src[2 * j + 1]);
            }
        }
    }
}

/// Inverse of [`pack_rows`]: lane `y` of tile row `j` becomes sample pair
/// `j` of image row `y`.
// lint: hot-path
fn unpack_rows(re: &[f32], im: &[f32], ld: usize, real: &mut [f32], w: usize) {
    for (block, rows) in real.chunks_mut(PACK_ROWS * w).enumerate() {
        let (y0, n) = (block * PACK_ROWS, rows.len() / w);
        for j in 0..w / 2 {
            let (re, im) = (&re[j * ld + y0..][..n], &im[j * ld + y0..][..n]);
            for ((&r, &i), dst) in re.iter().zip(im).zip(rows.chunks_exact_mut(w)) {
                (dst[2 * j], dst[2 * j + 1]) = (r, i);
            }
        }
    }
}

/// `dst[c * dst_ld + r] = src[r * src_ld + c]` for `r < rows`, `c < cols`,
/// writing each destination row contiguously. The source is walked as
/// exact rows so the read needs no bounds check per element.
// lint: hot-path
fn transpose(src: &[f32], src_ld: usize, dst: &mut [f32], dst_ld: usize, rows: usize, cols: usize) {
    for (c, d) in dst.chunks_mut(dst_ld).take(cols).enumerate() {
        for (v, row) in d[..rows].iter_mut().zip(src.chunks_exact(src_ld)) {
            *v = row[c];
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
    fn scratch_is_never_grown() {
        let plan = RealFft2d::new(16, 16).unwrap();
        let img = image(16, 16);
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f32; 256];
        let mut scratch = Vec::new();
        for _ in 0..3 {
            plan.forward(&img, &mut half, &mut scratch).unwrap();
            plan.inverse(&mut half, &mut out, &mut scratch).unwrap();
        }
        assert_eq!(scratch.capacity(), 0);
    }
}
