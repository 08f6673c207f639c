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
//! moves left to the caller, and [`RealFft2d::inverse_into`] is the inverse
//! body finishing in a caller's frame. [`RealFft2d::forward`] enters by
//! packing an image and exits by interleaving into [`Complex`] bins;
//! [`RealFft2d::inverse`] enters by splitting bins and exits by unpacking
//! into an image.
//!
//! Every move between layouts writes whole rows, and each writes them at
//! the digit-reversed positions the following pass reads, so no pass runs a
//! swap program: the entries feed the first pass, and the transposes
//! between the passes feed the second (the inverse's tangle reads and
//! writes its bins through the same position map). The transposes, the
//! pack and the unpack are one 8 × 8 register-block move (`transpose`),
//! AVX shuffles where the build enables AVX and a scalar loop elsewhere.
//! The inverse's `1/n` factors ride on each pass's last butterfly stage.
//! Each element goes through the same floating-point operations, in the
//! same order, as transforming one row and one column at a time. The
//! planes live in per-thread storage grown to the largest plan the thread
//! has run, so a transform allocates nothing once its thread has run one
//! at least this large.

use crate::{Complex, Direction, Fft1d, FftError};
use std::cell::RefCell;
use std::ops::Range;

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
    /// The tile row the row pass reads sample pair (or bin) `j` from: the
    /// inverse of `row_plan`'s digit-reversal order.
    row_pos: Vec<u32>,
    /// The column-plane row the column pass reads image row (or spectrum
    /// row) `y` from: the inverse of `col_plan`'s order.
    col_pos: Vec<u32>,
    /// Untangling twiddles `e^{-2πik/w}` for `k = 0 ..= w/2`.
    tw: Vec<Complex>,
}

/// Inverts a digit-reversal order: `pos[order[i]] = i`.
fn positions(order: &[u32]) -> Vec<u32> {
    let mut pos = vec![0; order.len()];
    for (i, &r) in (0u32..).zip(order) {
        pos[r as usize] = i;
    }
    pos
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
        let (row_pos, col_pos) = (positions(row_plan.order()), positions(col_plan.order()));
        let tw = (0..=half)
            .map(|k| Complex::cis(-2.0 * std::f32::consts::PI * k as f32 / width as f32))
            .collect();
        Ok(RealFft2d {
            height,
            width,
            half_width: half + 1,
            row_plan,
            col_plan,
            row_pos,
            col_pos,
            tw,
        })
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
        self.with_planes(|[frame, nyq_re, nyq_im, col_re, col_im]| {
            // Row pass: the entry writes tile row `i` with sample pair
            // `order[i]`, so every half-length row FFT runs as one batch with
            // no swaps; then untangle the m+1 stored bins across lanes, bin m
            // (Nyquist) into its own row.
            entry(TileEntry { frame: &mut *frame, ld, lanes: h, plan: self });
            let (re, im) = frame.split_at_mut(m * ld);
            self.row_plan.transform_lanes(re, im, ld, h, Direction::Forward);
            self.untangle_lanes(re, im, nyq_re, nyq_im, ld);

            // Column pass: transpose so stored column kx is lane kx, writing
            // image row y as plane row `col_pos[y]`, the digit-reversed
            // position the batched full-height FFT over all w/2+1 lanes reads.
            for (tile, nyq, col) in [(&*re, &*nyq_re, &mut *col_re), (&*im, &*nyq_im, &mut *col_im)]
            {
                transpose(tile, col, m, h, |r| r * ld, |y| self.col_pos[y] as usize * hw);
                for (&v, &p) in nyq.iter().zip(&self.col_pos) {
                    col[p as usize * hw + m] = v;
                }
            }
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
        entry: impl FnMut(usize, &mut [f32], &mut [f32]),
        exit: impl FnOnce(TileExit<'_>) -> R,
    ) -> R {
        self.inverse_body(entry, None, exit)
    }

    /// [`RealFft2d::inverse_with`] finishing in `tile`, a caller's frame in
    /// tile layout (see the module docs), instead of the working tile: the
    /// row pass runs in `tile`, which then holds the image. The litho model
    /// keeps its per-kernel fields this way.
    ///
    /// # Panics
    ///
    /// Panics unless `tile` holds [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn inverse_into(&self, entry: impl FnMut(usize, &mut [f32], &mut [f32]), tile: &mut [f32]) {
        assert_eq!(tile.len(), self.real_len(), "tile length mismatch");
        self.inverse_body(entry, Some(tile), |_| ());
    }

    /// The inverse body: the column pass in the working column planes, then
    /// the row pass in `tile`, or in the working tile when `tile` is `None`.
    // lint: hot-path
    fn inverse_body<R>(
        &self,
        mut entry: impl FnMut(usize, &mut [f32], &mut [f32]),
        tile: Option<&mut [f32]>,
        exit: impl FnOnce(TileExit<'_>) -> R,
    ) -> R {
        let (h, hw, m) = (self.height, self.half_width, self.width / 2);
        self.with_planes(|[frame, nyq_re, nyq_im, col_re, col_im]| {
            // Column pass first (reverse of forward): the entry writes plane
            // row `i` with spectrum row `order[i]`, so one batched inverse
            // FFT runs down every stored column with no swaps, its last stage
            // carrying the 1/h normalization.
            let rows = col_re.chunks_exact_mut(hw).zip(col_im.chunks_exact_mut(hw));
            for ((re, im), &ky) in rows.zip(self.col_plan.order()) {
                entry(ky as usize, re, im);
            }
            self.col_plan.transform_lanes(col_re, col_im, hw, hw, Direction::Inverse);

            // Row pass: transpose so image row y is tile lane y, bin kx
            // landing on tile row `row_pos[kx]` and bin m on the Nyquist row;
            // tangle the m+1 bins across lanes through the same positions,
            // which leaves the half-length sequence in the digit-reversed
            // order the batched inverse FFT (1/m) reads. The two 1/2 factors
            // hidden in the tangle make 1/(h·m) the exact overall 1/(h·w)
            // normalization.
            let (frame, ld) = match tile {
                Some(tile) => (tile, h),
                None => (frame, h + TILE_PAD),
            };
            let (re, im) = frame.split_at_mut(m * ld);
            for (col, tile, nyq) in
                [(&*col_re, &mut *re, &mut *nyq_re), (&*col_im, &mut *im, &mut *nyq_im)]
            {
                transpose(col, tile, h, m, |y| y * hw, |kx| self.row_pos[kx] as usize * ld);
                for (v, row) in nyq.iter_mut().zip(col.chunks_exact(hw)) {
                    *v = row[m];
                }
            }
            self.tangle_lanes(re, im, nyq_re, nyq_im, ld);
            self.row_plan.transform_lanes(re, im, ld, h, Direction::Inverse);
            exit(TileExit { frame, ld, lanes: h })
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
        unpack_rows(tile, self.height, image, self.width);
    }

    /// Runs `f` on this thread's working planes, sized for this plan: the
    /// tile (its real plane's `w/2` rows of `h + TILE_PAD` floats, then its
    /// imaginary plane's), the two planes' Nyquist rows, then the two column
    /// planes, `h × (w/2+1)` each.
    fn with_planes<R>(&self, f: impl FnOnce([&mut [f32]; 5]) -> R) -> R {
        let ld = self.height + TILE_PAD;
        let (frame, cols) = (self.width * ld, self.spectrum_len());
        PLANES.with(|cell| {
            let mut planes = cell.borrow_mut();
            let len = frame + 2 * ld + 2 * cols;
            if planes.len() < len {
                // ALLOC: one-time growth of this thread's persistent working
                // planes; steady-state transforms reuse them.
                planes.resize(len, 0.0);
            }
            let (frame, rest) = planes.split_at_mut(frame);
            let (nyq_re, rest) = rest.split_at_mut(ld);
            let (nyq_im, rest) = rest.split_at_mut(ld);
            let (col_re, rest) = rest.split_at_mut(cols);
            f([frame, nyq_re, nyq_im, col_re, &mut rest[..cols]])
        })
    }

    /// Untangles the row FFTs across lanes: on entry tile row `k < m` holds
    /// bin `k` of every image row's half-length FFT `Z`; on exit tile rows
    /// `0..m` hold the real-input spectrum bins `X[0..m]` and the Nyquist
    /// rows `X[m]`. Each lane goes through the arithmetic of untangling its
    /// row alone.
    // lint: hot-path
    fn untangle_lanes(
        &self,
        re: &mut [f32],
        im: &mut [f32],
        nyq_re: &mut [f32],
        nyq_im: &mut [f32],
        ld: usize,
    ) {
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
        untangle_edges(&mut re[..lanes], &mut im[..lanes], nyq_re, nyq_im);
    }

    /// Tangles spectrum rows across lanes: on entry bin `k < m` of every
    /// image row sits at tile row `row_pos[k]` and bin `m` in the Nyquist
    /// rows; on exit tile row `row_pos[k]` holds element `k` of the
    /// half-length sequence whose inverse FFT yields the packed real
    /// samples, the order that FFT reads. Each lane goes through the
    /// arithmetic of tangling its row alone.
    // lint: hot-path
    fn tangle_lanes(
        &self,
        re: &mut [f32],
        im: &mut [f32],
        nyq_re: &[f32],
        nyq_im: &[f32],
        ld: usize,
    ) {
        let (lanes, m) = (self.height, self.width / 2);
        let at = |k: usize| self.row_pos[k] as usize;
        let a = at(0) * ld;
        tangle_edges(&mut re[a..][..lanes], &mut im[a..][..lanes], nyq_re, nyq_im);
        let mut k = 1;
        while 2 * k < m {
            let (rk, rmk) = two_rows(re, at(k), at(m - k), ld, lanes);
            let (ik, imk) = two_rows(im, at(k), at(m - k), ld, lanes);
            tangle_pair(self.tw[k].conj(), rk, ik, rmk, imk);
            k += 1;
        }
        if m >= 2 {
            let a = at(m / 2) * ld;
            tangle_middle(self.tw[m / 2].conj(), &mut re[a..][..lanes], &mut im[a..][..lanes]);
        }
    }
}

/// Extra lanes in each row of the working tile, whose rows then do not all
/// map onto the same few L1 sets. With the block moves, 128 px transforms
/// measured 8–14 % faster padded than with a stride of exactly the image
/// height; at 64 px the two tied. A caller's frame in tile layout
/// ([`RealFft2d::inverse_into`]) is not padded: the moves into it write
/// whole rows in strips, which keeps them off the same sets.
const TILE_PAD: usize = 8;

thread_local! {
    /// This thread's working planes for [`RealFft2d`], grown to the largest
    /// plan the thread has run. Crew workers are persistent, so each grows
    /// once per process.
    static PLANES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Distinct rows `a` and `b` of a plane with row stride `ld`, `lanes`
/// floats each, returned in the order asked for.
fn two_rows(
    plane: &mut [f32],
    a: usize,
    b: usize,
    ld: usize,
    lanes: usize,
) -> (&mut [f32], &mut [f32]) {
    let (head, tail) = plane.split_at_mut(a.max(b) * ld);
    let (lo, hi) = (&mut head[a.min(b) * ld..][..lanes], &mut tail[..lanes]);
    if a < b {
        (lo, hi)
    } else {
        (hi, lo)
    }
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
    /// The real plane's `w/2` rows of stride `ld`, then the imaginary
    /// plane's.
    frame: &'a mut [f32],
    ld: usize,
    lanes: usize,
    plan: &'a RealFft2d,
}

impl TileEntry<'_> {
    /// Packs a row-major real image of the plan's shape into the tile.
    ///
    /// # Panics
    ///
    /// Panics unless `image` holds [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn pack(self, image: &[f32]) {
        let w = self.plan.width;
        assert_eq!(image.len(), self.lanes * w, "image length mismatch");
        pack_rows(image, w, self.frame, self.ld, &self.plan.row_pos);
    }

    /// Calls `fill(j, re, im)` once per sample pair `j`, in the row pass's
    /// order, with that pair's tile row: `fill` must write lane `y` of `re`
    /// with sample `(y, 2j)` and of `im` with sample `(y, 2j + 1)`, for all
    /// `height` lanes.
    // lint: hot-path
    pub fn fill(self, mut fill: impl FnMut(usize, &mut [f32], &mut [f32])) {
        let (ld, lanes) = (self.ld, self.lanes);
        let (re, im) = self.frame.split_at_mut(self.frame.len() / 2);
        let rows = re.chunks_exact_mut(ld).zip(im.chunks_exact_mut(ld));
        for ((re, im), &j) in rows.zip(self.plan.row_plan.order()) {
            fill(j as usize, &mut re[..lanes], &mut im[..lanes]);
        }
    }
}

/// The inverse transform's exit: its tile, holding the real image in tile
/// layout with rows in natural order.
#[derive(Debug)]
pub struct TileExit<'a> {
    frame: &'a [f32],
    ld: usize,
    lanes: usize,
}

impl TileExit<'_> {
    /// Unpacks the image into a row-major real buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `image` holds [`RealFft2d::real_len`] floats.
    // lint: hot-path
    pub fn unpack(&self, image: &mut [f32]) {
        let w = self.frame.len() / self.ld;
        assert_eq!(image.len(), self.lanes * w, "image length mismatch");
        unpack_rows(self.frame, self.ld, image, w);
    }
}

/// Packs a real image `w` samples wide into a frame in tile layout with row
/// stride `ld`, transposed so image row `y` becomes lane `y`: sample pair
/// `j` of row `y` lands at lane `y` of row `pos[j]` of the real (even
/// sample) and imaginary (odd sample) planes.
// lint: hot-path
fn pack_rows(image: &[f32], w: usize, frame: &mut [f32], ld: usize, pos: &[u32]) {
    let (plane, lanes) = (frame.len() / 2, image.len() / w);
    transpose(image, frame, lanes, w, |y| y * w, |x| x % 2 * plane + pos[x / 2] as usize * ld);
}

/// Unpacks a frame in tile layout with row stride `ld` and rows in natural
/// order into a row-major image `w` samples wide: lane `y` of row `j` of the
/// real and imaginary planes becomes samples `(y, 2j)` and `(y, 2j + 1)`.
// lint: hot-path
fn unpack_rows(frame: &[f32], ld: usize, image: &mut [f32], w: usize) {
    let (plane, lanes) = (frame.len() / 2, image.len() / w);
    transpose(frame, image, w, lanes, |x| x % 2 * plane + x / 2 * ld, |y| y * w);
}

/// Side of the square blocks [`transpose`] moves through [`block8`].
const BLOCK: usize = 8;

/// Source columns (destination rows) per strip of [`transpose`]. A strip's
/// destination rows stay in L1 while the move walks down the source, so a
/// power-of-two row stride on either side cannot make it thrash. At 128 px,
/// 16 measured faster than 8 and the same as 32.
const STRIP: usize = 16;

/// `dst[dst_row(c) + r] = src[src_row(r) + c]` for every `r < rows` and
/// `c < cols`: the one transposing move behind both passes' layout changes
/// and the tile's pack and unpack. `src_row` and `dst_row` give each row's
/// offset, so a move can split or merge the tile's two planes and place
/// rows in digit-reversed order as it goes. Whole 8 × 8 blocks go through
/// [`block8`], and the remainders through [`transpose_scalar`].
// lint: hot-path
#[inline(always)]
fn transpose(
    src: &[f32],
    dst: &mut [f32],
    rows: usize,
    cols: usize,
    src_row: impl Fn(usize) -> usize,
    dst_row: impl Fn(usize) -> usize,
) {
    let (rb, cb) = (rows - rows % BLOCK, cols - cols % BLOCK);
    for strip in (0..cb).step_by(STRIP) {
        for r0 in (0..rb).step_by(BLOCK) {
            let s: [usize; BLOCK] = std::array::from_fn(|i| src_row(r0 + i));
            for c0 in (strip..cb.min(strip + STRIP)).step_by(BLOCK) {
                let d: [usize; BLOCK] = std::array::from_fn(|j| dst_row(c0 + j));
                block8(src, &s, c0, dst, &d, r0);
            }
        }
    }
    transpose_scalar(src, dst, 0..rb, cb..cols, &src_row, &dst_row);
    transpose_scalar(src, dst, rb..rows, 0..cols, &src_row, &dst_row);
}

/// [`transpose`] over a range of rows and columns, one element at a time:
/// the block remainders, and the reference [`block8`] is tested against.
fn transpose_scalar(
    src: &[f32],
    dst: &mut [f32],
    rows: Range<usize>,
    cols: Range<usize>,
    src_row: impl Fn(usize) -> usize,
    dst_row: impl Fn(usize) -> usize,
) {
    for c in cols {
        let d = dst_row(c);
        for r in rows.clone() {
            dst[d + r] = src[src_row(r) + c];
        }
    }
}

/// Moves one 8 × 8 block: row `i` is the 8 floats at `src[s[i] + c..]`,
/// and its column `j` goes to the 8 floats at `dst[d[j] + r..]`. Unpacks and
/// shuffles within 128-bit lanes, then swaps lane halves.
// lint: hot-path
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline(always)]
fn block8(
    src: &[f32],
    s: &[usize; BLOCK],
    c: usize,
    dst: &mut [f32],
    d: &[usize; BLOCK],
    r: usize,
) {
    use std::arch::x86_64::{
        _mm256_loadu_ps as load, _mm256_permute2f128_ps as lanes, _mm256_shuffle_ps as shuffle,
        _mm256_storeu_ps as store, _mm256_unpackhi_ps as hi, _mm256_unpacklo_ps as lo,
    };
    let end = |offsets: &[usize; BLOCK], at: usize| {
        offsets.iter().fold(0, |m: usize, &o| m.max(o)).saturating_add(at + BLOCK)
    };
    assert!(end(s, c) <= src.len() && end(d, r) <= dst.len(), "block out of bounds");
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    // SAFETY: the assert above bounds every row the block reads (8 floats
    // from `s[i] + c`) by `src.len()` and every row it writes (8 floats from
    // `d[j] + r`) by `dst.len()`; the build enables AVX (the `cfg` above).
    unsafe {
        let r0 = load(sp.add(s[0] + c));
        let r1 = load(sp.add(s[1] + c));
        let r2 = load(sp.add(s[2] + c));
        let r3 = load(sp.add(s[3] + c));
        let r4 = load(sp.add(s[4] + c));
        let r5 = load(sp.add(s[5] + c));
        let r6 = load(sp.add(s[6] + c));
        let r7 = load(sp.add(s[7] + c));
        // Row pairs interleaved: columns 0, 1, 4, 5 (`lo`) and 2, 3, 6, 7
        // (`hi`) of rows 2p and 2p + 1.
        let (t0, t1, t2, t3) = (lo(r0, r1), hi(r0, r1), lo(r2, r3), hi(r2, r3));
        let (t4, t5, t6, t7) = (lo(r4, r5), hi(r4, r5), lo(r6, r7), hi(r6, r7));
        // Columns j and j + 4 of rows 0–3 (`q0..q3`), then of rows 4–7.
        let (q0, q1) = (shuffle::<0x44>(t0, t2), shuffle::<0xEE>(t0, t2));
        let (q2, q3) = (shuffle::<0x44>(t1, t3), shuffle::<0xEE>(t1, t3));
        let (q4, q5) = (shuffle::<0x44>(t4, t6), shuffle::<0xEE>(t4, t6));
        let (q6, q7) = (shuffle::<0x44>(t5, t7), shuffle::<0xEE>(t5, t7));
        store(dp.add(d[0] + r), lanes::<0x20>(q0, q4));
        store(dp.add(d[1] + r), lanes::<0x20>(q1, q5));
        store(dp.add(d[2] + r), lanes::<0x20>(q2, q6));
        store(dp.add(d[3] + r), lanes::<0x20>(q3, q7));
        store(dp.add(d[4] + r), lanes::<0x31>(q0, q4));
        store(dp.add(d[5] + r), lanes::<0x31>(q1, q5));
        store(dp.add(d[6] + r), lanes::<0x31>(q2, q6));
        store(dp.add(d[7] + r), lanes::<0x31>(q3, q7));
    }
}

/// The portable [`block8`]: the same move, one element at a time.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
#[inline(always)]
fn block8(
    src: &[f32],
    s: &[usize; BLOCK],
    c: usize,
    dst: &mut [f32],
    d: &[usize; BLOCK],
    r: usize,
) {
    transpose_scalar(src, dst, 0..BLOCK, 0..BLOCK, |i| s[i] + c, |j| d[j] + r);
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

    /// The four block moves against [`transpose_scalar`] over the whole
    /// range, bit for bit, on the shapes of the 2-D bit-identity test: every
    /// written element matches and no other element is touched.
    #[test]
    fn block_moves_match_the_scalar_loop() {
        fn check(
            rows: usize,
            cols: usize,
            src_row: impl Fn(usize) -> usize,
            dst_row: impl Fn(usize) -> usize,
        ) {
            let src_len = (0..rows).map(|r| src_row(r) + cols).max().unwrap();
            let dst_len = (0..cols).map(|c| dst_row(c) + rows).max().unwrap();
            let src: Vec<f32> = (0..src_len).map(|i| i as f32).collect();
            let (mut got, mut want) = (vec![f32::NAN; dst_len], vec![f32::NAN; dst_len]);
            transpose(&src, &mut got, rows, cols, &src_row, &dst_row);
            transpose_scalar(&src, &mut want, 0..rows, 0..cols, &src_row, &dst_row);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
        }
        let shapes = [
            (1usize, 2usize),
            (2, 16),
            (4, 8),
            (8, 8),
            (16, 4),
            (16, 32),
            (64, 64),
            (128, 16),
            (128, 128),
            (32, 256),
        ];
        for (h, w) in shapes {
            let plan = RealFft2d::new(h, w).unwrap();
            let (m, hw, ld) = (w / 2, plan.half_width(), h + TILE_PAD);
            let (row_pos, col_pos) = (&plan.row_pos, &plan.col_pos);
            check(h, w, |y| y * w, |x| x % 2 * m * ld + row_pos[x / 2] as usize * ld);
            check(w, h, |x| x % 2 * m * ld + x / 2 * ld, |y| y * w);
            check(m, h, |r| r * ld, |y| col_pos[y] as usize * hw);
            check(h, m, |y| y * hw, |kx| row_pos[kx] as usize * h);
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
