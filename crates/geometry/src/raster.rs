//! Dense `f32` rasters and the pooling/upsampling pipeline.
//!
//! The paper feeds 2048×2048 clips through an **8×8 average pooling** before
//! the neural networks and recovers mask resolution afterwards with **linear
//! interpolation** (Section 4). [`Raster::avg_pool`] and
//! [`Raster::upsample_bilinear`] implement exactly those two stages.

/// A row-major `height × width` grid of `f32` samples.
///
/// Used for target patterns, masks, aerial images and wafer images across the
/// workspace.
///
/// ```
/// use ganopc_geometry::raster::Raster;
/// let mut r = Raster::zeros(4, 4);
/// r.set(1, 2, 0.5);
/// assert_eq!(r.get(1, 2), 0.5);
/// assert_eq!(r.sum(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    height: usize,
    width: usize,
    data: Vec<f32>,
}

impl Raster {
    /// An all-zero raster.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(height: usize, width: usize) -> Self {
        assert!(height > 0 && width > 0, "raster dimensions must be nonzero");
        Raster { height, width, data: vec![0.0; height * width] }
    }

    /// A raster filled with `value`.
    pub fn filled(height: usize, width: usize, value: f32) -> Self {
        let mut r = Raster::zeros(height, width);
        r.data.fill(value);
        r
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != height * width` or a dimension is zero.
    pub fn from_vec(height: usize, width: usize, data: Vec<f32>) -> Self {
        assert!(height > 0 && width > 0, "raster dimensions must be nonzero");
        assert_eq!(data.len(), height * width, "buffer size mismatch");
        Raster { height, width, data }
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the raster holds no samples (never for valid
    /// rasters).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sample at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.height && col < self.width, "raster index out of bounds");
        self.data[row * self.width + col]
    }

    /// Writes the sample at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.height && col < self.width, "raster index out of bounds");
        self.data[row * self.width + col] = value;
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the raster and returns the buffer.
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Largest sample.
    pub fn max(&self) -> f32 {
        // A compare, not `f32::max`: under `-C target-cpu=native` (AVX-512)
        // rustc 1.95 inlined an `f32::max` fold over a 5-sample raster into a
        // 4-lane path whose exit reused the flags of its NaN test and skipped
        // the fifth sample (`tests::max_and_min_see_every_sample`). Like
        // `f32::max`, the compare ignores NaN samples.
        self.data.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m })
    }

    /// Smallest sample (a compare, for the reason [`Raster::max`] gives).
    pub fn min(&self) -> f32 {
        self.data.iter().fold(f32::INFINITY, |m, &v| if v < m { v } else { m })
    }

    /// Squared L2 distance to another raster of the same shape
    /// (Definition 1 of the paper when both are binary wafer/target images).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn squared_l2_distance(&self, other: &Raster) -> f64 {
        assert_eq!(self.shape(), other.shape(), "raster shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum()
    }

    /// `(height, width)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// `factor × factor` average pooling (the paper's 8×8 stage).
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are divisible by `factor` and
    /// `factor > 0`.
    pub fn avg_pool(&self, factor: usize) -> Raster {
        assert!(factor > 0, "pool factor must be positive");
        assert!(
            self.height.is_multiple_of(factor) && self.width.is_multiple_of(factor),
            "raster {}x{} not divisible by pool factor {factor}",
            self.height,
            self.width
        );
        let oh = self.height / factor;
        let ow = self.width / factor;
        let norm = 1.0 / (factor * factor) as f32;
        let mut out = Raster::zeros(oh, ow);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for dy in 0..factor {
                    let row = (oy * factor + dy) * self.width + ox * factor;
                    for dx in 0..factor {
                        acc += self.data[row + dx];
                    }
                }
                out.data[oy * ow + ox] = acc * norm;
            }
        }
        out
    }

    /// Nearest-neighbour upsampling by an integer factor.
    pub fn upsample_nearest(&self, factor: usize) -> Raster {
        assert!(factor > 0, "upsample factor must be positive");
        let oh = self.height * factor;
        let ow = self.width * factor;
        let mut out = Raster::zeros(oh, ow);
        for y in 0..oh {
            let sy = y / factor;
            for x in 0..ow {
                out.data[y * ow + x] = self.data[sy * self.width + x / factor];
            }
        }
        out
    }

    /// Bilinear upsampling by an integer factor (the paper's "simple linear
    /// interpolation" used to restore full mask resolution).
    ///
    /// Sample positions are pixel centers; border samples clamp.
    pub fn upsample_bilinear(&self, factor: usize) -> Raster {
        assert!(factor > 0, "upsample factor must be positive");
        let oh = self.height * factor;
        let ow = self.width * factor;
        let mut out = Raster::zeros(oh, ow);
        let f = factor as f32;
        for y in 0..oh {
            // Source coordinate of this output pixel center.
            let sy = ((y as f32 + 0.5) / f - 0.5).max(0.0);
            let y0 = (sy.floor() as usize).min(self.height - 1);
            let y1 = (y0 + 1).min(self.height - 1);
            let ty = sy - y0 as f32;
            for x in 0..ow {
                let sx = ((x as f32 + 0.5) / f - 0.5).max(0.0);
                let x0 = (sx.floor() as usize).min(self.width - 1);
                let x1 = (x0 + 1).min(self.width - 1);
                let tx = sx - x0 as f32;
                let a = self.data[y0 * self.width + x0];
                let b = self.data[y0 * self.width + x1];
                let c = self.data[y1 * self.width + x0];
                let d = self.data[y1 * self.width + x1];
                let top = a + (b - a) * tx;
                let bot = c + (d - c) * tx;
                out.data[y * ow + x] = top + (bot - top) * ty;
            }
        }
        out
    }

    /// Thresholds into a binary raster: `1.0` where `sample >= threshold`.
    pub fn binarize(&self, threshold: f32) -> Raster {
        let data = self.data.iter().map(|&v| if v >= threshold { 1.0 } else { 0.0 }).collect();
        Raster { height: self.height, width: self.width, data }
    }

    /// Fraction of samples that are `>= threshold`.
    pub fn coverage(&self, threshold: f32) -> f32 {
        let n = self.data.iter().filter(|&&v| v >= threshold).count();
        n as f32 / self.data.len() as f32
    }

    /// Binary box dilation: a sample becomes `1.0` when any sample within
    /// Chebyshev distance `radius` is `>= threshold`. Used to build halo
    /// regions (e.g. the legal mask-correction zone around a target).
    pub fn dilate_box(&self, radius: usize, threshold: f32) -> Raster {
        if radius == 0 {
            return self.binarize(threshold);
        }
        // Separable: horizontal any-pass then vertical any-pass.
        let mut horiz = Raster::zeros(self.height, self.width);
        for y in 0..self.height {
            for x in 0..self.width {
                let lo = x.saturating_sub(radius);
                let hi = (x + radius).min(self.width - 1);
                let any = (lo..=hi).any(|xx| self.get(y, xx) >= threshold);
                horiz.set(y, x, if any { 1.0 } else { 0.0 });
            }
        }
        let mut out = Raster::zeros(self.height, self.width);
        for y in 0..self.height {
            let lo = y.saturating_sub(radius);
            let hi = (y + radius).min(self.height - 1);
            for x in 0..self.width {
                let any = (lo..=hi).any(|yy| horiz.get(yy, x) >= 0.5);
                out.set(y, x, if any { 1.0 } else { 0.0 });
            }
        }
        out
    }

    /// Element-wise map into a new raster.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Raster {
        Raster {
            height: self.height,
            width: self.width,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut r = Raster::zeros(3, 5);
        assert_eq!(r.shape(), (3, 5));
        assert_eq!(r.len(), 15);
        r.set(2, 4, 9.0);
        assert_eq!(r.get(2, 4), 9.0);
        assert_eq!(r.as_slice()[14], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let r = Raster::zeros(2, 2);
        let _ = r.get(2, 0);
    }

    #[test]
    fn from_vec_validates_length() {
        let r = Raster::from_vec(2, 3, vec![1.0; 6]);
        assert_eq!(r.sum(), 6.0);
        assert!(std::panic::catch_unwind(|| Raster::from_vec(2, 3, vec![0.0; 5])).is_err());
    }

    #[test]
    fn statistics() {
        let r = Raster::from_vec(1, 4, vec![1.0, -2.0, 3.0, 0.0]);
        assert_eq!(r.sum(), 2.0);
        assert_eq!(r.mean(), 0.5);
        assert_eq!(r.max(), 3.0);
        assert_eq!(r.min(), -2.0);
    }

    /// `max` and `min` see every sample of a raster whose length the
    /// compiler knows, the last of five included.
    #[test]
    fn max_and_min_see_every_sample() {
        for pos in 0..5 {
            let mut v = vec![0.0f32; 5];
            v[pos] = 4.0;
            let r = Raster::from_vec(1, 5, std::hint::black_box(v.clone()));
            assert_eq!(r.max(), 4.0, "max at {pos}");
            v[pos] = -4.0;
            let r = Raster::from_vec(1, 5, std::hint::black_box(v));
            assert_eq!(r.min(), -4.0, "min at {pos}");
        }
    }

    #[test]
    fn avg_pool_exact_blocks() {
        #[rustfmt::skip]
        let r = Raster::from_vec(4, 4, vec![
            1.0, 1.0, 0.0, 0.0,
            1.0, 1.0, 0.0, 4.0,
            2.0, 0.0, 0.0, 0.0,
            0.0, 2.0, 0.0, 0.0,
        ]);
        let p = r.avg_pool(2);
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(0, 1), 1.0);
        assert_eq!(p.get(1, 0), 1.0);
        assert_eq!(p.get(1, 1), 0.0);
    }

    #[test]
    fn avg_pool_preserves_mean() {
        let r = Raster::from_vec(8, 8, (0..64).map(|i| i as f32).collect());
        let p = r.avg_pool(4);
        assert!((p.mean() - r.mean()).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn avg_pool_requires_divisibility() {
        let _ = Raster::zeros(6, 6).avg_pool(4);
    }

    #[test]
    fn nearest_upsample_replicates() {
        let r = Raster::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let u = r.upsample_nearest(2);
        assert_eq!(u.shape(), (4, 4));
        assert_eq!(u.get(0, 0), 1.0);
        assert_eq!(u.get(0, 1), 1.0);
        assert_eq!(u.get(1, 1), 1.0);
        assert_eq!(u.get(3, 3), 4.0);
        assert_eq!(u.get(0, 3), 2.0);
    }

    #[test]
    fn bilinear_upsample_constant_is_constant() {
        let r = Raster::filled(3, 3, 0.7);
        let u = r.upsample_bilinear(4);
        assert!(u.as_slice().iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }

    #[test]
    fn bilinear_upsample_preserves_mean_of_linear_ramp() {
        let r = Raster::from_vec(1, 4, vec![0.0, 1.0, 2.0, 3.0]);
        let u = r.upsample_bilinear(2);
        assert_eq!(u.shape(), (2, 8));
        // Interior is a smooth ramp, monotone nondecreasing.
        let row: Vec<f32> = (0..8).map(|x| u.get(0, x)).collect();
        for w in row.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "{row:?}");
        }
        assert_eq!(row[0], 0.0);
        assert_eq!(row[7], 3.0);
    }

    #[test]
    fn pool_then_upsample_roundtrip_on_blocky_image() {
        // An image constant on 4x4 blocks survives pool(4)+nearest(4) exactly.
        let mut r = Raster::zeros(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                let v = if x < 4 { 1.0 } else { 0.0 };
                r.set(y, x, v);
            }
        }
        let round = r.avg_pool(4).upsample_nearest(4);
        assert_eq!(round, r);
    }

    #[test]
    fn binarize_and_coverage() {
        let r = Raster::from_vec(1, 4, vec![0.2, 0.5, 0.8, 0.49]);
        let b = r.binarize(0.5);
        assert_eq!(b.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
        assert_eq!(r.coverage(0.5), 0.5);
    }

    #[test]
    fn squared_l2_distance_binary_images() {
        let a = Raster::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
        let b = Raster::from_vec(1, 4, vec![1.0, 1.0, 0.0, 0.0]);
        assert_eq!(a.squared_l2_distance(&b), 2.0);
        assert_eq!(a.squared_l2_distance(&a), 0.0);
    }

    #[test]
    fn dilate_box_grows_chebyshev_ball() {
        let mut r = Raster::zeros(7, 7);
        r.set(3, 3, 1.0);
        let d = r.dilate_box(2, 0.5);
        for y in 0..7 {
            for x in 0..7 {
                let inside = (y as i64 - 3).abs() <= 2 && (x as i64 - 3).abs() <= 2;
                assert_eq!(d.get(y, x), if inside { 1.0 } else { 0.0 }, "({y},{x})");
            }
        }
        // Radius 0 is plain binarization.
        assert_eq!(r.dilate_box(0, 0.5), r.binarize(0.5));
    }

    #[test]
    fn map_applies_function() {
        let r = Raster::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let m = r.map(|v| v * v);
        assert_eq!(m.as_slice(), &[1.0, 4.0, 9.0]);
    }
}
