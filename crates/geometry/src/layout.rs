//! Layout clips: a frame plus a bag of rectilinear shapes.

use crate::raster::Raster;
use crate::Rect;

/// A layout clip: a rectangular frame (in nm) containing rectangles.
///
/// L/T/U-shaped patterns are represented as overlapping/abutting rectangle
/// unions, matching how M1 wiring decomposes. Rasterization and area queries
/// treat the shape set as a *union* (overlaps are not double counted).
///
/// ```
/// use ganopc_geometry::{Layout, Rect};
/// let mut clip = Layout::new(Rect::new(0, 0, 1024, 1024));
/// clip.push(Rect::from_origin_size(100, 100, 80, 600));
/// clip.push(Rect::from_origin_size(100, 620, 400, 80)); // L-shape arm
/// assert_eq!(clip.shapes().len(), 2);
/// assert!(clip.pattern_area() < 80 * 600 + 400 * 80); // overlap counted once
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    frame: Rect,
    shapes: Vec<Rect>,
}

impl Layout {
    /// Creates an empty clip with the given frame.
    pub fn new(frame: Rect) -> Self {
        Layout { frame, shapes: Vec::new() }
    }

    /// Creates a clip from a frame and shape list.
    pub fn with_shapes(frame: Rect, shapes: Vec<Rect>) -> Self {
        Layout { frame, shapes }
    }

    /// The clip frame.
    #[inline]
    pub fn frame(&self) -> Rect {
        self.frame
    }

    /// The shapes of the clip.
    #[inline]
    pub fn shapes(&self) -> &[Rect] {
        &self.shapes
    }

    /// Adds a shape (not clipped to the frame; callers keep shapes inside).
    pub fn push(&mut self, shape: Rect) {
        self.shapes.push(shape);
    }

    /// Adds a rectilinear polygon, decomposed into rectangles
    /// ([`crate::Polygon::to_rects`]).
    pub fn push_polygon(&mut self, polygon: &crate::Polygon) {
        self.shapes.extend(polygon.to_rects());
    }

    /// Number of shapes.
    #[inline]
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Returns `true` when the clip holds no shapes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Exact union area of the shapes in nm² (overlaps counted once),
    /// computed by coordinate-compression sweep.
    ///
    /// This is the "Area" column of Table 2 in the paper.
    pub fn pattern_area(&self) -> i64 {
        union_area(&self.shapes)
    }

    /// Rasterizes the clip into a `height × width` coverage bitmap.
    ///
    /// Each pixel holds the fraction of its footprint covered by the shape
    /// union, in `[0, 1]` — pixels fully inside a shape are `1.0`, boundary
    /// pixels are area-weighted. The frame maps onto the full image.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0 || height == 0` or the frame is empty.
    pub fn rasterize(&self, width: usize, height: usize) -> Vec<f32> {
        self.rasterize_raster(width, height).into_data()
    }

    /// Like [`Layout::rasterize`] but returns a typed [`Raster`].
    pub fn rasterize_raster(&self, width: usize, height: usize) -> Raster {
        assert!(width > 0 && height > 0, "raster dimensions must be nonzero");
        assert!(!self.frame.is_empty(), "cannot rasterize an empty frame");
        let mut img = Raster::zeros(height, width);
        let fx = width as f64 / self.frame.width() as f64;
        let fy = height as f64 / self.frame.height() as f64;
        for shape in &self.shapes {
            let Some(clipped) = shape.intersection(&self.frame) else { continue };
            // Shape corners in (fractional) pixel coordinates.
            let px0 = (clipped.x0 - self.frame.x0) as f64 * fx;
            let px1 = (clipped.x1 - self.frame.x0) as f64 * fx;
            let py0 = (clipped.y0 - self.frame.y0) as f64 * fy;
            let py1 = (clipped.y1 - self.frame.y0) as f64 * fy;
            let ix0 = px0.floor() as usize;
            let ix1 = (px1.ceil() as usize).min(width);
            let iy0 = py0.floor() as usize;
            let iy1 = (py1.ceil() as usize).min(height);
            for y in iy0..iy1 {
                let cy0 = (y as f64).max(py0);
                let cy1 = ((y + 1) as f64).min(py1);
                let hy = (cy1 - cy0).max(0.0);
                for x in ix0..ix1 {
                    let cx0 = (x as f64).max(px0);
                    let cx1 = ((x + 1) as f64).min(px1);
                    let wx = (cx1 - cx0).max(0.0);
                    let v = img.get(y, x) + (wx * hy) as f32;
                    img.set(y, x, v.min(1.0));
                }
            }
        }
        img
    }

    /// Translates every shape and the frame.
    pub fn translate(&mut self, dx: i64, dy: i64) {
        self.frame = self.frame.translate(dx, dy);
        for s in &mut self.shapes {
            *s = s.translate(dx, dy);
        }
    }
}

impl Extend<Rect> for Layout {
    fn extend<T: IntoIterator<Item = Rect>>(&mut self, iter: T) {
        self.shapes.extend(iter);
    }
}

/// Exact area of the union of a rectangle set (coordinate compression +
/// row sweep). `O(n²)` in the number of distinct y-coordinates — fine for
/// clip-scale inputs (tens to hundreds of shapes).
pub fn union_area(rects: &[Rect]) -> i64 {
    let rects: Vec<&Rect> = rects.iter().filter(|r| !r.is_empty()).collect();
    if rects.is_empty() {
        return 0;
    }
    let mut ys: Vec<i64> = rects.iter().flat_map(|r| [r.y0, r.y1]).collect();
    ys.sort_unstable();
    ys.dedup();
    let mut total = 0i64;
    for band in ys.windows(2) {
        let (y0, y1) = (band[0], band[1]);
        // Collect x-intervals of rects spanning this band and merge them.
        let mut xs: Vec<(i64, i64)> =
            rects.iter().filter(|r| r.y0 <= y0 && r.y1 >= y1).map(|r| (r.x0, r.x1)).collect();
        if xs.is_empty() {
            continue;
        }
        xs.sort_unstable();
        let mut covered = 0i64;
        let (mut cur_lo, mut cur_hi) = xs[0];
        for &(lo, hi) in &xs[1..] {
            if lo > cur_hi {
                covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = cur_hi.max(hi);
            }
        }
        covered += cur_hi - cur_lo;
        total += covered * (y1 - y0);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_area_disjoint_and_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(20, 0, 30, 10);
        assert_eq!(union_area(&[a, b]), 200);
        let c = Rect::new(5, 5, 15, 15);
        assert_eq!(union_area(&[a, c]), 100 + 100 - 25);
        assert_eq!(union_area(&[]), 0);
        assert_eq!(union_area(&[a, a, a]), 100);
    }

    #[test]
    fn union_area_contained() {
        let outer = Rect::new(0, 0, 100, 100);
        let inner = Rect::new(10, 10, 20, 20);
        assert_eq!(union_area(&[outer, inner]), 10_000);
    }

    #[test]
    fn pattern_area_matches_union() {
        let frame = Rect::new(0, 0, 1000, 1000);
        let clip =
            Layout::with_shapes(frame, vec![Rect::new(0, 0, 80, 500), Rect::new(0, 420, 400, 500)]);
        assert_eq!(clip.pattern_area(), 80 * 500 + 400 * 80 - 80 * 80);
    }

    #[test]
    fn rasterize_full_coverage_rect() {
        // A shape spanning exactly half the frame at raster-aligned edges.
        let frame = Rect::new(0, 0, 64, 64);
        let clip = Layout::with_shapes(frame, vec![Rect::new(0, 0, 32, 64)]);
        let img = clip.rasterize(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                let expect = if x < 4 { 1.0 } else { 0.0 };
                assert_eq!(img[y * 8 + x], expect, "pixel ({y},{x})");
            }
        }
    }

    #[test]
    fn rasterize_antialiases_boundary() {
        // Shape covering 1.5 pixel columns: second column is half covered.
        let frame = Rect::new(0, 0, 80, 80);
        let clip = Layout::with_shapes(frame, vec![Rect::new(0, 0, 15, 80)]);
        let img = clip.rasterize(8, 8);
        assert_eq!(img[0], 1.0);
        assert!((img[1] - 0.5).abs() < 1e-6);
        assert_eq!(img[2], 0.0);
    }

    #[test]
    fn rasterize_conserves_area() {
        let frame = Rect::new(0, 0, 2048, 2048);
        let clip = Layout::with_shapes(
            frame,
            vec![
                Rect::from_origin_size(100, 100, 80, 700),
                Rect::from_origin_size(300, 200, 80, 900),
                Rect::from_origin_size(100, 900, 500, 80),
            ],
        );
        let img = clip.rasterize(256, 256);
        let px_area_nm2 = (2048.0 / 256.0) * (2048.0 / 256.0);
        let raster_area: f64 = img.iter().map(|&v| v as f64).sum::<f64>() * px_area_nm2;
        let exact = clip.pattern_area() as f64;
        assert!(
            (raster_area - exact).abs() / exact < 0.01,
            "raster {raster_area} vs exact {exact}"
        );
    }

    #[test]
    fn rasterize_clamps_overlaps() {
        let frame = Rect::new(0, 0, 64, 64);
        let clip =
            Layout::with_shapes(frame, vec![Rect::new(0, 0, 64, 64), Rect::new(0, 0, 64, 64)]);
        let img = clip.rasterize(4, 4);
        assert!(img.iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn shapes_outside_frame_are_clipped() {
        let frame = Rect::new(0, 0, 64, 64);
        let clip = Layout::with_shapes(frame, vec![Rect::new(-100, -100, -10, -10)]);
        let img = clip.rasterize(8, 8);
        assert!(img.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn translate_moves_everything() {
        let mut clip = Layout::with_shapes(Rect::new(0, 0, 10, 10), vec![Rect::new(1, 1, 2, 2)]);
        clip.translate(5, -5);
        assert_eq!(clip.frame(), Rect::new(5, -5, 15, 5));
        assert_eq!(clip.shapes()[0], Rect::new(6, -4, 7, -3));
    }

    #[test]
    fn extend_adds_shapes() {
        let mut clip = Layout::new(Rect::new(0, 0, 100, 100));
        clip.extend([Rect::new(0, 0, 1, 1), Rect::new(2, 2, 3, 3)]);
        assert_eq!(clip.len(), 2);
        assert!(!clip.is_empty());
    }
}
