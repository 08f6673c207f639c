//! Planned 1-D mixed radix-4/radix-2 FFT.

use crate::{Complex, Direction, FftError};

/// A planned 1-D FFT for a fixed power-of-two length.
///
/// The plan factors the length as `[2?] · 4 · 4 · …` — a single leading
/// radix-2 stage when `log2(len)` is odd, radix-4 butterflies everywhere
/// else — and precomputes everything the transform needs:
///
/// * the mixed-radix digit-reversal permutation, flattened into a branch-free
///   swap program applied in place;
/// * *direction-specific* twiddle tables (forward and conjugated inverse),
///   so the butterfly inner loops carry no per-element direction branch.
///
/// Radix-4 performs the same arithmetic as two fused radix-2 stages but with
/// one pass over the data and 25 % fewer complex multiplies, which is what
/// makes it the main stage of the spectral engine.
///
/// ```
/// use ganopc_fft::{Complex, Direction, Fft1d};
/// # fn main() -> Result<(), ganopc_fft::FftError> {
/// let plan = Fft1d::new(16)?;
/// let mut x: Vec<Complex> = (0..16).map(|k| Complex::new(k as f32, 0.0)).collect();
/// let original = x.clone();
/// plan.transform(&mut x, Direction::Forward)?;
/// plan.transform(&mut x, Direction::Inverse)?;
/// for (a, b) in x.iter().zip(&original) {
///     assert!((a.re - b.re).abs() < 1e-4 && a.im.abs() < 1e-4);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft1d {
    len: usize,
    /// The mixed-radix digit-reversal permutation: the butterflies read
    /// input element `order[i]` at position `i`.
    order: Vec<u32>,
    /// Swap program realizing `order` in place; executing
    /// `data.swap(i, j)` over the list permutes with no scratch storage.
    swaps: Vec<(u32, u32)>,
    /// Whether a twiddle-free radix-2 stage over adjacent pairs runs first
    /// (`log2(len)` odd).
    radix2_first: bool,
    /// Forward radix-4 twiddles, stage-by-stage: for each stage with
    /// quarter-span `m`, the triples `(W^t, W^2t, W^3t)` with
    /// `W = e^{-2πi/(4m)}`, `t = 0..m`.
    fwd: Vec<Complex>,
    /// The same tables conjugated, for the inverse transform.
    inv: Vec<Complex>,
}

/// Source-index permutation for the mixed-radix DIT input reordering:
/// `reordered[i] = data[perm[i]]`. The factor applied at the outermost
/// combine is 4 whenever `len >= 4`; the radix-2 stage (odd `log2`) is the
/// innermost, so it never appears here except for `len == 2`.
fn digit_reversal(len: usize) -> Vec<u32> {
    if len <= 1 {
        return vec![0; len.min(1)];
    }
    let r = if len == 2 { 2 } else { 4 };
    let m = len / r;
    let sub = digit_reversal(m);
    let mut out = Vec::with_capacity(len);
    for b in 0..r {
        for &s in &sub {
            out.push(s * r as u32 + b as u32);
        }
    }
    out
}

/// Decomposes `perm` (semantics `new[i] = old[perm[i]]`) into a sequence of
/// in-place swaps.
fn swap_program(perm: &[u32]) -> Vec<(u32, u32)> {
    let mut swaps = Vec::new();
    let mut visited = vec![false; perm.len()];
    for start in 0..perm.len() {
        if visited[start] || perm[start] as usize == start {
            visited[start] = true;
            continue;
        }
        // Walk the cycle start -> perm[start] -> …; rotating values one step
        // backwards along it realizes `new[c] = old[perm[c]]`.
        let mut prev = start;
        let mut cur = perm[start] as usize;
        visited[start] = true;
        while cur != start {
            visited[cur] = true;
            swaps.push((prev as u32, cur as u32));
            prev = cur;
            cur = perm[cur] as usize;
        }
    }
    swaps
}

impl Fft1d {
    /// Plans a transform of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidLength`] unless `len` is a nonzero power of
    /// two.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if !crate::is_power_of_two(len) {
            return Err(FftError::InvalidLength(len));
        }
        let log2_len = len.trailing_zeros();
        let radix2_first = log2_len % 2 == 1;
        let order = digit_reversal(len);
        let swaps = swap_program(&order);
        // Radix-4 twiddles: quarter-span m starts at 1 (even log2) or 2 (odd
        // log2, after the radix-2 stage) and quadruples per stage.
        let mut fwd = Vec::new();
        let mut m = if radix2_first { 2usize } else { 1 };
        while 4 * m <= len {
            let step = -std::f32::consts::PI / (2.0 * m as f32); // -2π/(4m)
            for t in 0..m {
                let theta = step * t as f32;
                fwd.push(Complex::cis(theta));
                fwd.push(Complex::cis(2.0 * theta));
                fwd.push(Complex::cis(3.0 * theta));
            }
            m *= 4;
        }
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Ok(Fft1d { len, order, swaps, radix2_first, fwd, inv })
    }

    /// Length the plan was created for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: [`Fft1d::new`] rejects length zero, so a constructed
    /// plan is never empty. Present for API completeness alongside
    /// [`Fft1d::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Transforms `data` in place: the public 1-D entry point, and the
    /// reference the batched lane transform is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] when `data.len() != self.len()`.
    // lint: hot-path
    pub fn transform(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        let n = self.len;
        if data.len() != n {
            return Err(FftError::SizeMismatch { expected: n, actual: data.len() });
        }
        if n <= 1 {
            return Ok(());
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        if self.radix2_first {
            for pair in data.chunks_exact_mut(2) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a + b;
                pair[1] = a - b;
            }
        }
        let m0 = if self.radix2_first { 2 } else { 1 };
        match dir {
            Direction::Forward => self.radix4_stages::<false>(data, m0),
            Direction::Inverse => {
                self.radix4_stages::<true>(data, m0);
                let scale = 1.0 / n as f32;
                for c in data.iter_mut() {
                    *c = c.scale(scale);
                }
            }
        }
        Ok(())
    }

    /// The digit-reversal order the butterflies read their input in: the
    /// batched lane transform reads input row `order()[i]` at row `i`, so a
    /// caller that moves rows into the planes anyway places them in this
    /// order, and no swap program runs.
    #[inline]
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Transforms `lanes` independent sequences at once, held in split
    /// real/imaginary planes whose rows are already in digit-reversed order
    /// (see [`Fft1d::order`]): element `r` of
    /// lane `l` is `(re[i * stride + l], im[i * stride + l])` where
    /// `order()[i] == r`. Both planes hold `len × stride` floats; lanes
    /// `lanes..stride` are never touched. The output is in natural order.
    ///
    /// Each lane goes through exactly the floating-point operations, in the
    /// same order, that [`Fft1d::transform`] applies to it alone, so the
    /// results are bit-identical to transforming extracted lanes. Every
    /// butterfly's inner loop runs across the contiguous lanes of its four
    /// rows, so it vectorizes over the planes with no transpose or scratch
    /// storage. From length 4 up, the inverse's `1/len` multiplies the last
    /// radix-4 stage's outputs as they are stored, the same product a
    /// separate pass would form; at length 2 it is a pass after the radix-2
    /// stage. [`crate::RealFft2d`] runs both of its passes through it.
    // lint: hot-path
    pub(crate) fn transform_lanes(
        &self,
        re: &mut [f32],
        im: &mut [f32],
        stride: usize,
        lanes: usize,
        dir: Direction,
    ) {
        let n = self.len;
        debug_assert!(lanes <= stride, "lanes must fit the stride");
        debug_assert!(
            re.len() == n * stride && im.len() == n * stride,
            "planes must be len × stride"
        );
        if n <= 1 || lanes == 0 {
            return;
        }
        if self.radix2_first {
            for plane in [&mut *re, &mut *im] {
                for pair in plane.chunks_exact_mut(2 * stride) {
                    let (r0, r1) = pair.split_at_mut(stride);
                    for (x0, x1) in r0[..lanes].iter_mut().zip(&mut r1[..lanes]) {
                        let (a, b) = (*x0, *x1);
                        *x0 = a + b;
                        *x1 = a - b;
                    }
                }
            }
        }
        let m0 = if self.radix2_first { 2 } else { 1 };
        match dir {
            Direction::Forward => self.radix4_stages_lanes::<false>(re, im, stride, lanes, m0),
            Direction::Inverse if 4 * m0 > n => {
                // Length 2: the radix-2 stage above was the last one.
                let scale = 1.0 / n as f32;
                for plane in [re, im] {
                    for row in plane.chunks_exact_mut(stride) {
                        for v in &mut row[..lanes] {
                            *v *= scale;
                        }
                    }
                }
            }
            Direction::Inverse => self.radix4_stages_lanes::<true>(re, im, stride, lanes, m0),
        }
    }

    /// All radix-4 stages for one direction. `INV` selects the conjugated
    /// twiddle table and the sign of the `±i` rotation, monomorphizing the
    /// butterfly into two branch-free inner loops.
    // lint: hot-path
    fn radix4_stages<const INV: bool>(&self, data: &mut [Complex], mut m: usize) {
        let table: &[Complex] = if INV { &self.inv } else { &self.fwd };
        let n = data.len();
        let mut base = 0usize;
        while 4 * m <= n {
            let span = 4 * m;
            let stage_tw = &table[base..base + 3 * m];
            for group in data.chunks_exact_mut(span) {
                let (q01, q23) = group.split_at_mut(2 * m);
                let (q0, q1) = q01.split_at_mut(m);
                let (q2, q3) = q23.split_at_mut(m);
                for (t, w) in stage_tw.chunks_exact(3).enumerate() {
                    let y = butterfly4::<INV>([q0[t], q1[t], q2[t], q3[t]], [w[0], w[1], w[2]]);
                    [q0[t], q1[t], q2[t], q3[t]] = y;
                }
            }
            base += 3 * m;
            m = span;
        }
    }

    /// [`Fft1d::radix4_stages`] over split planes of `stride`-float rows:
    /// quarter `q` of a group is `m` whole rows, and the butterfly with
    /// twiddle triple `t` runs across the lanes of row `t` of the four
    /// quarters. The inverse's last stage also applies the `1/len` scale.
    // lint: hot-path
    fn radix4_stages_lanes<const INV: bool>(
        &self,
        re: &mut [f32],
        im: &mut [f32],
        stride: usize,
        lanes: usize,
        mut m: usize,
    ) {
        let table: &[Complex] = if INV { &self.inv } else { &self.fwd };
        let n = self.len;
        let mut base = 0usize;
        while 4 * m <= n {
            let stage_tw = &table[base..base + 3 * m];
            if INV && 16 * m > n {
                let scale = 1.0 / n as f32;
                radix4_stage_lanes::<INV, true>(re, im, stride, lanes, m, stage_tw, scale);
            } else {
                radix4_stage_lanes::<INV, false>(re, im, stride, lanes, m, stage_tw, 1.0);
            }
            base += 3 * m;
            m *= 4;
        }
    }
}

/// One radix-4 stage of quarter-span `m` over split planes. `SCALED`
/// multiplies every butterfly output by `scale` before it is stored.
// lint: hot-path
#[inline(always)]
fn radix4_stage_lanes<const INV: bool, const SCALED: bool>(
    re: &mut [f32],
    im: &mut [f32],
    stride: usize,
    lanes: usize,
    m: usize,
    stage_tw: &[Complex],
    scale: f32,
) {
    let span = 4 * m;
    let groups = re.chunks_exact_mut(span * stride).zip(im.chunks_exact_mut(span * stride));
    for (gre, gim) in groups {
        let [r0, r1, r2, r3] = quarters(gre, m * stride);
        let [i0, i1, i2, i3] = quarters(gim, m * stride);
        for (t, w) in stage_tw.chunks_exact(3).enumerate() {
            let w = [w[0], w[1], w[2]];
            let (a, b) = (t * stride, t * stride + lanes);
            let (r0, r1, r2, r3) = (&mut r0[a..b], &mut r1[a..b], &mut r2[a..b], &mut r3[a..b]);
            let (i0, i1, i2, i3) = (&mut i0[a..b], &mut i1[a..b], &mut i2[a..b], &mut i3[a..b]);
            for l in 0..lanes {
                let x = [
                    Complex::new(r0[l], i0[l]),
                    Complex::new(r1[l], i1[l]),
                    Complex::new(r2[l], i2[l]),
                    Complex::new(r3[l], i3[l]),
                ];
                let mut y = butterfly4::<INV>(x, w);
                if SCALED {
                    y = y.map(|c| c.scale(scale));
                }
                let [y0, y1, y2, y3] = y;
                (r0[l], i0[l]) = (y0.re, y0.im);
                (r1[l], i1[l]) = (y1.re, y1.im);
                (r2[l], i2[l]) = (y2.re, y2.im);
                (r3[l], i3[l]) = (y3.re, y3.im);
            }
        }
    }
}

/// Splits a radix-4 group into its four quarters of `q` floats each.
fn quarters(group: &mut [f32], q: usize) -> [&mut [f32]; 4] {
    let (q0, rest) = group.split_at_mut(q);
    let (q1, rest) = rest.split_at_mut(q);
    let (q2, q3) = rest.split_at_mut(q);
    [q0, q1, q2, q3]
}

/// One radix-4 decimation-in-time butterfly on `x = (x0, x1, x2, x3)` with
/// the twiddle triple `w = (W^t, W^2t, W^3t)`. The single body both the
/// per-sequence and the batched lane stages run, so their arithmetic cannot
/// diverge.
#[inline(always)]
fn butterfly4<const INV: bool>(x: [Complex; 4], w: [Complex; 3]) -> [Complex; 4] {
    let u0 = x[0];
    let u1 = x[1] * w[0];
    let u2 = x[2] * w[1];
    let u3 = x[3] * w[2];
    let s02 = u0 + u2;
    let d02 = u0 - u2;
    let s13 = u1 + u3;
    let d13 = u1 - u3;
    // jd13 = ∓i·d13: forward uses W₄ = e^{-iπ/2} = -i, the inverse its
    // conjugate.
    let jd13 = if INV { Complex::new(-d13.im, d13.re) } else { Complex::new(d13.im, -d13.re) };
    [s02 + s13, d02 + jd13, s02 - s13, d02 - jd13]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(N²) DFT in f64 used as the reference implementation.
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

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n).map(|k| Complex::new(k as f32 * 0.25 - 1.0, (k as f32 * 0.5).sin())).collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(Fft1d::new(0).err(), Some(FftError::InvalidLength(0)));
        assert_eq!(Fft1d::new(3).err(), Some(FftError::InvalidLength(3)));
        assert_eq!(Fft1d::new(48).err(), Some(FftError::InvalidLength(48)));
        assert!(Fft1d::new(1).is_ok());
        assert!(Fft1d::new(1024).is_ok());
    }

    #[test]
    fn rejects_wrong_buffer_size() {
        let plan = Fft1d::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        assert_eq!(
            plan.transform(&mut data, Direction::Forward),
            Err(FftError::SizeMismatch { expected: 8, actual: 4 })
        );
    }

    #[test]
    fn digit_reversal_interleaves_residues() {
        // len 8 factors as [2, 4]: the radix-2 pairs must hold the mod-4
        // residue classes in order.
        assert_eq!(digit_reversal(8), vec![0, 4, 1, 5, 2, 6, 3, 7]);
        assert_eq!(digit_reversal(4), vec![0, 1, 2, 3]);
        assert_eq!(digit_reversal(2), vec![0, 1]);
    }

    #[test]
    fn swap_program_applies_permutation() {
        for n in [2usize, 8, 16, 64, 128] {
            let perm = digit_reversal(n);
            let swaps = swap_program(&perm);
            let mut data: Vec<u32> = (0..n as u32).collect();
            for &(i, j) in &swaps {
                data.swap(i as usize, j as usize);
            }
            for (i, &p) in perm.iter().enumerate() {
                assert_eq!(data[i], p, "n={n} position {i}");
            }
        }
    }

    #[test]
    fn matches_naive_dft_all_sizes() {
        for log in 0..=10 {
            let n = 1usize << log;
            let plan = Fft1d::new(n).unwrap();
            let input = ramp(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let expect = naive_dft(&input, dir);
                let mut got = input.clone();
                plan.transform(&mut got, dir).unwrap();
                let tol = 1e-5 * (n as f32) + 1e-4;
                for (g, e) in got.iter().zip(&expect) {
                    assert!((g.re - e.re).abs() < tol, "n={n} {dir:?}");
                    assert!((g.im - e.im).abs() < tol, "n={n} {dir:?}");
                }
            }
        }
    }

    /// The batched lane transform against one [`Fft1d::transform`] per
    /// lane, bit for bit, with rows copied in [`Fft1d::order`]. The
    /// inverse's `1/len` is fused into its last stage, so the inverse cases
    /// check that too. Lanes past `lanes` must come out untouched.
    #[test]
    fn transform_lanes_is_bit_identical_to_per_lane_transforms() {
        for log in 0..=10 {
            let n = 1usize << log;
            let plan = Fft1d::new(n).unwrap();
            for (lanes, stride) in
                [(1usize, 1usize), (2, 2), (3, 11), (33, 33), (65, 65), (128, 136)]
            {
                let block: Vec<Complex> = (0..n * stride)
                    .map(|i| Complex::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos() - 0.5))
                    .collect();
                let (block_re, block_im): (Vec<f32>, Vec<f32>) =
                    block.iter().map(|c| (c.re, c.im)).unzip();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let (mut re, mut im) = (block_re.clone(), block_im.clone());
                    for (i, &r) in plan.order().iter().enumerate() {
                        let (dst, src) = (i * stride, r as usize * stride);
                        re[dst..][..lanes].copy_from_slice(&block_re[src..][..lanes]);
                        im[dst..][..lanes].copy_from_slice(&block_im[src..][..lanes]);
                    }
                    plan.transform_lanes(&mut re, &mut im, stride, lanes, dir);

                    for l in 0..stride {
                        let mut lane: Vec<Complex> =
                            (0..n).map(|r| block[r * stride + l]).collect();
                        if l < lanes {
                            plan.transform(&mut lane, dir).unwrap();
                        }
                        for (r, want) in lane.iter().enumerate() {
                            let got = (re[r * stride + l], im[r * stride + l]);
                            assert_eq!(
                                (got.0.to_bits(), got.1.to_bits()),
                                (want.re.to_bits(), want.im.to_bits()),
                                "n={n} lanes={lanes} stride={stride} {dir:?} at ({r},{l})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [1usize, 2, 8, 64, 512] {
            let plan = Fft1d::new(n).unwrap();
            let input = ramp(n);
            let mut data = input.clone();
            plan.transform(&mut data, Direction::Forward).unwrap();
            plan.transform(&mut data, Direction::Inverse).unwrap();
            for (a, b) in data.iter().zip(&input) {
                assert!((a.re - b.re).abs() < 1e-3);
                assert!((a.im - b.im).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let plan = Fft1d::new(32).unwrap();
        let mut data = vec![Complex::ZERO; 32];
        data[0] = Complex::ONE;
        plan.transform(&mut data, Direction::Forward).unwrap();
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn constant_concentrates_at_dc() {
        let plan = Fft1d::new(16).unwrap();
        let mut data = vec![Complex::from_real(2.0); 16];
        plan.transform(&mut data, Direction::Forward).unwrap();
        assert!((data[0].re - 32.0).abs() < 1e-4);
        for c in &data[1..] {
            assert!(c.abs() < 1e-4);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let plan = Fft1d::new(n).unwrap();
        let input = ramp(n);
        let time_energy: f32 = input.iter().map(|c| c.norm_sqr()).sum();
        let mut freq = input.clone();
        plan.transform(&mut freq, Direction::Forward).unwrap();
        let freq_energy: f32 = freq.iter().map(|c| c.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() < 1e-2 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = Fft1d::new(n).unwrap();
        let a = ramp(n);
        let b: Vec<Complex> = (0..n).map(|k| Complex::new((k as f32).cos(), 0.3)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<Complex> =
            a.iter().zip(&b).map(|(&x, &y)| x.scale(2.0) + y.scale(-0.5)).collect();
        plan.transform(&mut fa, Direction::Forward).unwrap();
        plan.transform(&mut fb, Direction::Forward).unwrap();
        plan.transform(&mut fab, Direction::Forward).unwrap();
        for i in 0..n {
            let expect = fa[i].scale(2.0) + fb[i].scale(-0.5);
            assert!((fab[i].re - expect.re).abs() < 1e-2);
            assert!((fab[i].im - expect.im).abs() < 1e-2);
        }
    }
}
