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
    /// Swap program realizing the mixed-radix digit-reversal permutation;
    /// executing `data.swap(i, j)` over the list applies the permutation in
    /// place with no scratch storage.
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
        let swaps = swap_program(&digit_reversal(len));
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
        Ok(Fft1d { len, swaps, radix2_first, fwd, inv })
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

    /// Transforms `data` in place.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeMismatch`] when `data.len() != self.len()`.
    // lint: hot-path
    pub fn transform(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        if data.len() != self.len {
            return Err(FftError::SizeMismatch { expected: self.len, actual: data.len() });
        }
        self.transform_unchecked(data, dir);
        Ok(())
    }

    /// Transforms a buffer whose length is known to match the plan.
    ///
    /// Used by [`crate::RealFft2d`] on internal rows, where the length
    /// invariant is maintained structurally.
    // lint: hot-path
    pub(crate) fn transform_unchecked(&self, data: &mut [Complex], dir: Direction) {
        let n = self.len;
        if n <= 1 {
            return;
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
    }

    /// Transforms every column of a row-major `len × cols` block in place:
    /// `cols` independent length-`len` transforms run as one batch.
    ///
    /// Each column goes through exactly the floating-point operations, in
    /// the same order, that [`Fft1d::transform`] applies to it alone, so the
    /// results are bit-identical to transforming extracted columns. The swap
    /// program moves whole rows and every butterfly's inner loop runs across
    /// the contiguous columns of a row, so it vectorizes and needs no
    /// transpose or scratch storage. Used by [`crate::RealFft2d`]'s column
    /// pass over the stored half-spectrum.
    // lint: hot-path
    pub(crate) fn transform_columns(&self, data: &mut [Complex], cols: usize, dir: Direction) {
        let n = self.len;
        debug_assert_eq!(data.len(), n * cols, "block must be len × cols");
        if n <= 1 || cols == 0 {
            return;
        }
        for &(i, j) in &self.swaps {
            let (lo, hi) = (i.min(j) as usize, i.max(j) as usize);
            let (head, tail) = data.split_at_mut(hi * cols);
            head[lo * cols..(lo + 1) * cols].swap_with_slice(&mut tail[..cols]);
        }
        if self.radix2_first {
            for pair in data.chunks_exact_mut(2 * cols) {
                let (r0, r1) = pair.split_at_mut(cols);
                for (x0, x1) in r0.iter_mut().zip(r1.iter_mut()) {
                    let (a, b) = (*x0, *x1);
                    *x0 = a + b;
                    *x1 = a - b;
                }
            }
        }
        let m0 = if self.radix2_first { 2 } else { 1 };
        match dir {
            Direction::Forward => self.radix4_stages_columns::<false>(data, cols, m0),
            Direction::Inverse => {
                self.radix4_stages_columns::<true>(data, cols, m0);
                let scale = 1.0 / n as f32;
                for c in data.iter_mut() {
                    *c = c.scale(scale);
                }
            }
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
                let mut tw = stage_tw.chunks_exact(3);
                for t in 0..m {
                    // PANIC: stage_tw holds exactly 3*m twiddles, so the
                    // chunks_exact(3) iterator yields one triple per t < m.
                    let w = tw.next().expect("twiddle triple");
                    let w = [w[0], w[1], w[2]];
                    butterfly4::<INV>(&mut q0[t], &mut q1[t], &mut q2[t], &mut q3[t], w);
                }
            }
            base += 3 * m;
            m = span;
        }
    }

    /// [`Fft1d::radix4_stages`] over the columns of a row-major
    /// `len × cols` block: quarter `q` of a group is `m` whole rows, and
    /// the butterfly with twiddle triple `t` runs across row `t` of the four
    /// quarters.
    // lint: hot-path
    fn radix4_stages_columns<const INV: bool>(
        &self,
        data: &mut [Complex],
        cols: usize,
        mut m: usize,
    ) {
        let table: &[Complex] = if INV { &self.inv } else { &self.fwd };
        let n = self.len;
        let mut base = 0usize;
        while 4 * m <= n {
            let span = 4 * m;
            let stage_tw = &table[base..base + 3 * m];
            for group in data.chunks_exact_mut(span * cols) {
                let (q01, q23) = group.split_at_mut(2 * m * cols);
                let (q0, q1) = q01.split_at_mut(m * cols);
                let (q2, q3) = q23.split_at_mut(m * cols);
                let rows = q0
                    .chunks_exact_mut(cols)
                    .zip(q1.chunks_exact_mut(cols))
                    .zip(q2.chunks_exact_mut(cols))
                    .zip(q3.chunks_exact_mut(cols));
                for ((((r0, r1), r2), r3), w) in rows.zip(stage_tw.chunks_exact(3)) {
                    let w = [w[0], w[1], w[2]];
                    let lanes = r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut()).zip(r3);
                    for (((x0, x1), x2), x3) in lanes {
                        butterfly4::<INV>(x0, x1, x2, x3, w);
                    }
                }
            }
            base += 3 * m;
            m = span;
        }
    }
}

/// One radix-4 decimation-in-time butterfly on `(x0, x1, x2, x3)` with the
/// twiddle triple `w = (W^t, W^2t, W^3t)`. The single body both the per-row
/// and the batched column stages run, so their arithmetic cannot diverge.
#[inline(always)]
fn butterfly4<const INV: bool>(
    x0: &mut Complex,
    x1: &mut Complex,
    x2: &mut Complex,
    x3: &mut Complex,
    w: [Complex; 3],
) {
    let u0 = *x0;
    let u1 = *x1 * w[0];
    let u2 = *x2 * w[1];
    let u3 = *x3 * w[2];
    let s02 = u0 + u2;
    let d02 = u0 - u2;
    let s13 = u1 + u3;
    let d13 = u1 - u3;
    // jd13 = ∓i·d13: forward uses W₄ = e^{-iπ/2} = -i, the inverse its
    // conjugate.
    let jd13 = if INV { Complex::new(-d13.im, d13.re) } else { Complex::new(d13.im, -d13.re) };
    *x0 = s02 + s13;
    *x1 = d02 + jd13;
    *x2 = s02 - s13;
    *x3 = d02 - jd13;
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

    #[test]
    fn transform_columns_is_bit_identical_to_per_column_transforms() {
        for log in 0..=10 {
            let n = 1usize << log;
            let plan = Fft1d::new(n).unwrap();
            for cols in [1usize, 2, 3, 33, 65, 129] {
                let block: Vec<Complex> = (0..n * cols)
                    .map(|i| Complex::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos() - 0.5))
                    .collect();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut batched = block.clone();
                    plan.transform_columns(&mut batched, cols, dir);
                    for c in 0..cols {
                        let mut col: Vec<Complex> = (0..n).map(|r| block[r * cols + c]).collect();
                        plan.transform(&mut col, dir).unwrap();
                        for (r, want) in col.iter().enumerate() {
                            let got = batched[r * cols + c];
                            assert_eq!(
                                (got.re.to_bits(), got.im.to_bits()),
                                (want.re.to_bits(), want.im.to_bits()),
                                "n={n} cols={cols} {dir:?} at ({r},{c})"
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
