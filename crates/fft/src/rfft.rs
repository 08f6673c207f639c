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
//! Both passes run as batches over split real/imaginary `f32` planes, so
//! every butterfly vectorizes across lanes, and each pass works in its own
//! layout:
//!
//! * **Tile layout** (pixel domain, the row pass): sample pair `j` of image
//!   row `y` sits at lane `y` of tile row `j`; the real plane holds the even
//!   samples `(y, 2j)` and the imaginary plane the odd ones `(y, 2j + 1)`.
//!   A frame stored in tile layout is `h·w` floats: the real plane's `w/2`
//!   rows of `h` lanes, then the imaginary plane's.
//! * **Split planes** (spectral domain, the column pass): bin `(ky, kx)` at
//!   `ky * (w/2+1) + kx` of a real-part plane and an imaginary-part plane.
//!
//! The forward transform fills the tile, runs all `h` row FFTs as one batch,
//! untangles across lanes, transposes into the column planes, runs the
//! column pass as one batch and hands the planes to its exit; the inverse
//! runs the same steps backwards. [`RealFft2d::forward_with`] and
//! [`RealFft2d::inverse_with`] are these bodies, with the entry and exit
//! moves left to the caller. [`RealFft2d::forward`] enters by packing an
//! image and exits by interleaving into [`Complex`] bins;
//! [`RealFft2d::inverse`] enters by splitting bins and exits by unpacking
//! into an image. Every entry writes whole rows, so each places its rows in
//! the digit-reversed order the following pass reads and that pass runs no
//! swap program; the inverse's `1/n` factors ride on each pass's last
//! butterfly stage. Each element goes through the same floating-point
//! operations, in the same order, as transforming one row and one column at
//! a time. The planes live in per-thread storage grown to the largest plan
//! the thread has run, so a transform allocates nothing once its thread has
//! run one at least this large.

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

    /// Real-domain buffer length `height * width`, in image or tile layout.
    #[inline]
    pub fn real_len(&self) -> usize {
        self.height * self.width
    }

    /// Packed half-spectrum buffer length `height * (width/2 + 1)`: the
    /// [`Complex`] bins, or the floats of one split plane.
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
    /// [`RealFft2d::forward_with`] entered by [`TileEntry::pack`] and left by
    /// interleaving the split planes into `out`. `_scratch` is unused: it is
    /// never read or grown, and stays only for source compatibility with
    /// existing callers.
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
        self.forward_with(
            |tile| tile.pack(real),
            |re, im| {
                for ((o, &re), &im) in out.iter_mut().zip(re).zip(im) {
                    *o = Complex::new(re, im);
                }
            },
        );
        Ok(())
    }

    /// Inverse transform: packed half-spectrum → real image, normalized by
    /// `1/(height·width)` so `inverse(forward(x)) == x` up to rounding.
    ///
    /// [`RealFft2d::inverse_with`] entered by splitting each row of `half`
    /// and left by [`TileExit::unpack`]. The input is assumed
    /// Hermitian-consistent, i.e. in the range of [`RealFft2d::forward`] —
    /// true for any product of half-spectra of real fields, which is all the
    /// litho stack produces. `half` is only read; it stays `&mut` for source
    /// compatibility, and `_scratch` is unused, as in
    /// [`RealFft2d::forward`].
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
        let hw = self.half_width;
        self.inverse_with(
            |ky, re, im| {
                for ((re, im), z) in re.iter_mut().zip(im).zip(&half[ky * hw..][..hw]) {
                    (*re, *im) = (z.re, z.im);
                }
            },
            |tile| tile.unpack(out),
        );
        Ok(())
    }

    /// The forward transform with caller-supplied entry and exit moves.
    ///
    /// `entry` fills the tile (see the module docs) through [`TileEntry`];
    /// `exit` then receives the spectrum as split planes, real parts then
    /// imaginary parts, `height` rows of `width/2 + 1` bins each. Both run
    /// on this thread's working planes, inside the transform, so neither may
    /// start another [`RealFft2d`] transform.
    // lint: hot-path
    pub fn forward_with<R>(
        &self,
        entry: impl FnOnce(TileEntry<'_>),
        exit: impl FnOnce(&[f32], &[f32]) -> R,
    ) -> R {
        let (h, hw, m) = (self.height, self.half_width, self.width / 2);
        let ld = h + TILE_PAD;
        self.with_planes(|[tile_re, tile_im, col_re, col_im]| {
            // Row pass: the entry writes tile row `i` with sample pair
            // `order[i]`, so every half-length row FFT runs as one batch with
            // no swaps; then untangle the m+1 stored bins across lanes.
            entry(TileEntry {
                re: &mut tile_re[..m * ld],
                im: &mut tile_im[..m * ld],
                ld,
                lanes: h,
                order: self.row_plan.order(),
            });
            self.row_plan.transform_lanes(
                &mut tile_re[..m * ld],
                &mut tile_im[..m * ld],
                ld,
                h,
                Direction::Forward,
            );
            self.untangle_lanes(tile_re, tile_im, ld);

            // Column pass: transpose so stored column kx is lane kx, then one
            // batched full-height FFT over all w/2+1 lanes. A transpose that
            // wrote rows in digit-reversed order measured slower than the
            // plain one plus the swap program.
            transpose(tile_re, ld, col_re, hw, hw, h);
            transpose(tile_im, ld, col_im, hw, hw, h);
            self.col_plan.permute_lanes(col_re, col_im, hw, hw);
            self.col_plan.transform_lanes(col_re, col_im, hw, hw, Direction::Forward);
            exit(col_re, col_im)
        })
    }

    /// The inverse transform with caller-supplied entry and exit moves,
    /// normalized by `1/(height·width)`.
    ///
    /// `entry(ky, re, im)` runs once per spectrum row `ky`, in an order of
    /// the transform's choosing, and must write all `width/2 + 1` bins of
    /// that row, real parts to `re` and imaginary parts to `im`. The
    /// spectrum must be Hermitian-consistent (see [`RealFft2d::inverse`]).
    /// `exit` then receives the real image in tile layout through
    /// [`TileExit`]. Both run on this thread's working planes, inside the
    /// transform, so neither may start another [`RealFft2d`] transform.
    // lint: hot-path
    pub fn inverse_with<R>(
        &self,
        mut entry: impl FnMut(usize, &mut [f32], &mut [f32]),
        exit: impl FnOnce(TileExit<'_>) -> R,
    ) -> R {
        let (h, hw, m) = (self.height, self.half_width, self.width / 2);
        let ld = h + TILE_PAD;
        self.with_planes(|[tile_re, tile_im, col_re, col_im]| {
            // Column pass first (reverse of forward): the entry writes plane
            // row `i` with spectrum row `order[i]`, so one batched inverse
            // FFT runs down every stored column with no swaps, its last stage
            // carrying the 1/h normalization.
            let rows = col_re.chunks_exact_mut(hw).zip(col_im.chunks_exact_mut(hw));
            for ((re, im), &ky) in rows.zip(self.col_plan.order()) {
                entry(ky as usize, re, im);
            }
            self.col_plan.transform_lanes(col_re, col_im, hw, hw, Direction::Inverse);

            // Row pass: transpose so image row y is tile lane y, tangle the
            // m+1 bins back into a half-length complex sequence across lanes,
            // then one batched inverse FFT (1/m) whose input the tangle left
            // in natural order, so it keeps its swap program. The two 1/2
            // factors hidden in the tangle make 1/(h·m) the exact overall
            // 1/(h·w) normalization.
            transpose(col_re, hw, tile_re, ld, h, hw);
            transpose(col_im, hw, tile_im, ld, h, hw);
            self.tangle_lanes(tile_re, tile_im, ld);
            let (re, im) = (&mut tile_re[..m * ld], &mut tile_im[..m * ld]);
            self.row_plan.permute_lanes(re, im, ld, h);
            self.row_plan.transform_lanes(re, im, ld, h, Direction::Inverse);
            exit(TileExit { re, im, ld, lanes: h })
        })
    }

    /// Unpacks a frame stored in tile layout (see the module docs) into a
    /// row-major real image: the move [`TileExit::unpack`] makes from the
    /// transform's own tile.
    ///
    /// # Panics
    ///
    /// Panics unless both buffers hold [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn unpack(&self, tile: &[f32], image: &mut [f32]) {
        assert_eq!(tile.len(), self.real_len(), "tile length mismatch");
        assert_eq!(image.len(), self.real_len(), "image length mismatch");
        let (re, im) = tile.split_at(tile.len() / 2);
        unpack_rows(re, im, self.height, image, self.width);
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

/// The forward transform's entry: its tile, whose row `i` the row pass
/// reads as sample pair `order[i]` (the pass's digit-reversed input order).
/// Fill it with [`TileEntry::pack`] or [`TileEntry::fill`].
#[derive(Debug)]
pub struct TileEntry<'a> {
    re: &'a mut [f32],
    im: &'a mut [f32],
    ld: usize,
    lanes: usize,
    order: &'a [u32],
}

impl TileEntry<'_> {
    /// Packs a row-major real image of the plan's shape into the tile.
    ///
    /// # Panics
    ///
    /// Panics unless `image` holds [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn pack(self, image: &[f32]) {
        let w = 2 * self.order.len();
        assert_eq!(image.len(), self.lanes * w, "image length mismatch");
        pack_rows(image, w, self.re, self.im, self.ld, self.order);
    }

    /// Calls `fill(j, re, im)` once per sample pair `j`, in the row pass's
    /// order, with that pair's tile row: `fill` must write lane `y` of `re`
    /// with sample `(y, 2j)` and of `im` with sample `(y, 2j + 1)`, for all
    /// `height` lanes.
    // lint: hot-path
    pub fn fill(self, mut fill: impl FnMut(usize, &mut [f32], &mut [f32])) {
        let (ld, lanes) = (self.ld, self.lanes);
        let rows = self.re.chunks_exact_mut(ld).zip(self.im.chunks_exact_mut(ld));
        for ((re, im), &j) in rows.zip(self.order) {
            fill(j as usize, &mut re[..lanes], &mut im[..lanes]);
        }
    }
}

/// The inverse transform's exit: its tile, holding the real image in tile
/// layout with rows in natural order.
#[derive(Debug)]
pub struct TileExit<'a> {
    re: &'a [f32],
    im: &'a [f32],
    ld: usize,
    lanes: usize,
}

impl TileExit<'_> {
    /// Copies the image into `tile`, a frame in tile layout (see the module
    /// docs): the litho model keeps its per-kernel fields this way.
    ///
    /// # Panics
    ///
    /// Panics unless `tile` holds [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn copy_to(&self, tile: &mut [f32]) {
        let (ld, lanes) = (self.ld, self.lanes);
        assert_eq!(tile.len(), 2 * self.re.len() / ld * lanes, "tile length mismatch");
        let (dst_re, dst_im) = tile.split_at_mut(tile.len() / 2);
        for (src, dst) in [(self.re, dst_re), (self.im, dst_im)] {
            for (s, d) in src.chunks_exact(ld).zip(dst.chunks_exact_mut(lanes)) {
                d.copy_from_slice(&s[..lanes]);
            }
        }
    }

    /// Unpacks the image into a row-major real buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `image` holds [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn unpack(&self, image: &mut [f32]) {
        let w = 2 * self.re.len() / self.ld;
        assert_eq!(image.len(), self.lanes * w, "image length mismatch");
        unpack_rows(self.re, self.im, self.ld, image, w);
    }
}

/// Image rows the packing transposes move per block: the block's source
/// rows stay in L1 while every tile row gets one contiguous run of lanes.
const PACK_ROWS: usize = 16;

/// Packs a real `h × w` image into split tile planes of row stride `ld`,
/// transposed so image row `y` becomes lane `y`, with tile row `i` holding
/// sample pair `order[i]`: sample pair `order[i]` of row `y` lands at
/// `(re, im)[i * ld + y]`.
// lint: hot-path
fn pack_rows(real: &[f32], w: usize, re: &mut [f32], im: &mut [f32], ld: usize, order: &[u32]) {
    for (block, rows) in real.chunks(PACK_ROWS * w).enumerate() {
        let (y0, n) = (block * PACK_ROWS, rows.len() / w);
        for (i, &j) in order.iter().enumerate() {
            let j = j as usize;
            let (re, im) = (&mut re[i * ld + y0..][..n], &mut im[i * ld + y0..][..n]);
            for ((r, i), src) in re.iter_mut().zip(im.iter_mut()).zip(rows.chunks_exact(w)) {
                (*r, *i) = (src[2 * j], src[2 * j + 1]);
            }
        }
    }
}

/// Unpacks split tile planes of row stride `ld` with rows in natural order:
/// lane `y` of tile row `j` becomes sample pair `j` of image row `y`.
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
