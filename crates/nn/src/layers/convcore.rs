//! im2col / col2im primitives shared by convolution and transposed
//! convolution.

/// Output spatial size of a convolution: `⌊(in + 2·pad − k) / stride⌋ + 1`
/// (flooring, as deep-learning frameworks do).
///
/// # Panics
///
/// Panics when the kernel exceeds the padded input.
pub fn conv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * pad;
    assert!(padded >= kernel, "kernel {kernel} exceeds padded input {padded}");
    (padded - kernel) / stride + 1
}

/// Output spatial size of a transposed convolution:
/// `(in − 1)·stride − 2·pad + k`.
///
/// # Panics
///
/// Panics when the result would be non-positive.
pub fn deconv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let grown = (input - 1) * stride + kernel;
    assert!(grown > 2 * pad, "deconv geometry collapses: in={input} k={kernel} s={stride} p={pad}");
    grown - 2 * pad
}

/// Range of output positions `o` whose input tap `o·s + tap − p` lands
/// inside `[0, limit)`. Hoisting this out of the copy loops removes every
/// per-element padding branch in im2col/col2im.
#[inline]
fn tap_range(out: usize, limit: usize, tap: usize, s: usize, p: usize) -> (usize, usize) {
    let lo = if tap < p { (p - tap).div_ceil(s) } else { 0 };
    let hi = if limit + p > tap { ((limit + p - tap - 1) / s + 1).min(out) } else { 0 };
    (lo, hi.max(lo))
}

/// Allocating convenience wrapper over [`im2col_into`] (test-only; the
/// layers always reuse scratch).
#[cfg(test)]
pub fn im2col(
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
) -> Vec<f32> {
    let mut cols = Vec::new();
    im2col_into(&mut cols, input, c, h, w, k, s, p);
    cols
}

/// Unfolds one `[C, H, W]` image into a `[(C·k·k) × (OH·OW)]` column matrix
/// for stride-`s`, zero-pad-`p` convolution with a `k × k` kernel. `cols` is
/// resized and overwritten, so a caller-owned scratch vector amortizes the
/// allocation across calls.
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    cols: &mut Vec<f32>,
    input: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
) {
    debug_assert_eq!(input.len(), c * h * w);
    let oh = conv_out_size(h, k, s, p);
    let ow = conv_out_size(w, k, s, p);
    // clear + resize zero-fills even when the buffer is being reused, which
    // the padding positions (never written below) rely on.
    cols.clear();
    cols.resize(c * k * k * oh * ow, 0.0);
    let out_plane = oh * ow;
    for ci in 0..c {
        let img = &input[ci * h * w..(ci + 1) * h * w];
        for kh in 0..k {
            let (oy_lo, oy_hi) = tap_range(oh, h, kh, s, p);
            for kw in 0..k {
                let (ox_lo, ox_hi) = tap_range(ow, w, kw, s, p);
                let n = ox_hi - ox_lo;
                if n == 0 {
                    continue;
                }
                let row = ((ci * k + kh) * k + kw) * out_plane;
                for oy in oy_lo..oy_hi {
                    let src0 = (oy * s + kh - p) * w + ox_lo * s + kw - p;
                    let dst0 = row + oy * ow + ox_lo;
                    let src = &img[src0..src0 + (n - 1) * s + 1];
                    for (i, d) in cols[dst0..dst0 + n].iter_mut().enumerate() {
                        *d = src[s * i];
                    }
                }
            }
        }
    }
}

/// Allocating convenience wrapper over [`col2im_into`] (test-only; the
/// layers always reuse scratch).
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
) -> Vec<f32> {
    let mut img = vec![0.0f32; c * h * w];
    col2im_into(&mut img, cols, c, h, w, k, s, p);
    img
}

/// Folds a `[(C·k·k) × (OH·OW)]` column matrix back into a caller-owned
/// `[C, H, W]` slice by scatter-add — the adjoint of [`im2col_into`]. The
/// slice is overwritten (not accumulated), which lets the conv layers fold
/// straight into an output tensor.
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    img: &mut [f32],
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
) {
    let oh = conv_out_size(h, k, s, p);
    let ow = conv_out_size(w, k, s, p);
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    debug_assert_eq!(img.len(), c * h * w);
    img.fill(0.0);
    let out_plane = oh * ow;
    for ci in 0..c {
        let dst = &mut img[ci * h * w..(ci + 1) * h * w];
        for kh in 0..k {
            let (oy_lo, oy_hi) = tap_range(oh, h, kh, s, p);
            for kw in 0..k {
                let (ox_lo, ox_hi) = tap_range(ow, w, kw, s, p);
                let n = ox_hi - ox_lo;
                if n == 0 {
                    continue;
                }
                let row = ((ci * k + kh) * k + kw) * out_plane;
                for oy in oy_lo..oy_hi {
                    let dst0 = (oy * s + kh - p) * w + ox_lo * s + kw - p;
                    let src0 = row + oy * ow + ox_lo;
                    let out = &mut dst[dst0..dst0 + (n - 1) * s + 1];
                    for (i, &v) in cols[src0..src0 + n].iter().enumerate() {
                        out[s * i] += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(conv_out_size(8, 3, 1, 1), 8);
        assert_eq!(conv_out_size(8, 3, 2, 1), 4); // floors (8+2-3)/2 + 1
        assert_eq!(conv_out_size(8, 4, 2, 1), 4); // exact
        assert_eq!(deconv_out_size(4, 3, 2, 1), 7);
        assert_eq!(deconv_out_size(4, 4, 2, 1), 8);
        assert_eq!(deconv_out_size(4, 2, 2, 0), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds padded input")]
    fn conv_size_rejects_oversized_kernel() {
        let _ = conv_out_size(2, 8, 1, 1);
    }

    #[test]
    fn im2col_identity_kernel() {
        // k=1, s=1, p=0 ⇒ cols equal the input.
        let input: Vec<f32> = (0..2 * 3 * 3).map(|i| i as f32).collect();
        let cols = im2col(&input, 2, 3, 3, 1, 1, 0);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_3x3_padded_center_tap() {
        // Single channel 2x2 image, k=3, s=1, p=1: the center tap row
        // (kh=1,kw=1) reproduces the image.
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&input, 1, 2, 2, 3, 1, 1);
        let plane = 4;
        let center = (3 + 1) * plane;
        assert_eq!(&cols[center..center + 4], &input[..]);
        // Top-left tap (kh=0,kw=0) sees zero padding except at (1,1) where
        // it reads input (0,0).
        assert_eq!(&cols[0..4], &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for all x, y — the defining
        // property the conv backward pass relies on.
        let (c, h, w, k, s, p) = (2usize, 5, 4, 3, 1, 1);
        let oh = conv_out_size(h, k, s, p);
        let ow = conv_out_size(w, k, s, p);
        let x: Vec<f32> = (0..c * h * w).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
        let y: Vec<f32> =
            (0..c * k * k * oh * ow).map(|i| ((i * 61 % 13) as f32) * 0.25 - 1.0).collect();
        let ax: Vec<f32> = im2col(&x, c, h, w, k, s, p);
        let aty: Vec<f32> = col2im(&y, c, h, w, k, s, p);
        let lhs: f64 = ax.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(&a, &b)| a as f64 * b as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn strided_im2col_samples_every_other() {
        // 1 channel 4x4, k=2, s=2, p=0 → 2x2 outputs; tap (0,0) reads the
        // even-grid samples.
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let cols = im2col(&input, 1, 4, 4, 2, 2, 0);
        assert_eq!(&cols[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }
}
