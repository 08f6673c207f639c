//! Rectilinear polygons and their decomposition into rectangles.
//!
//! Real layout formats (GDSII/OASIS) describe M1 wires as rectilinear
//! polygons; the rest of this workspace operates on rectangle unions. This
//! module bridges the two: [`Polygon`] validates a rectilinear outline and
//! [`Polygon::to_rects`] slices it into horizontal rectangles with a
//! scanline pass, ready to be pushed into a [`crate::Layout`].

use crate::Rect;
use std::fmt;

/// One scanline band of a polygon interior: `(y_lo, y_hi, x-intervals)`.
type ScanBand = (i64, i64, Vec<(i64, i64)>);

/// Most vertices [`Polygon::new`] accepts. The scanline pass costs about
/// `O(n³)` time and `O(n²)` memory on a staircase comb, so this bounds the
/// work one hostile `poly` line can cause; the Table 1 shapes have about a
/// dozen vertices.
const MAX_VERTICES: usize = 1024;

/// Errors from polygon validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than 4 vertices.
    TooFewVertices(usize),
    /// More than 1 024 vertices.
    TooManyVertices(usize),
    /// An edge is neither horizontal nor vertical.
    NotRectilinear {
        /// Index of the offending edge (from vertex `i` to `i+1`).
        edge: usize,
    },
    /// Consecutive duplicate vertex.
    DegenerateEdge {
        /// Index of the zero-length edge.
        edge: usize,
    },
    /// The outline self-intersects (detected as an odd scanline interval
    /// count).
    SelfIntersecting,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices(n) => write!(f, "polygon needs >= 4 vertices, got {n}"),
            PolygonError::TooManyVertices(n) => {
                write!(f, "polygon has {n} vertices, more than the {MAX_VERTICES} accepted")
            }
            PolygonError::NotRectilinear { edge } => {
                write!(f, "edge {edge} is neither horizontal nor vertical")
            }
            PolygonError::DegenerateEdge { edge } => write!(f, "edge {edge} has zero length"),
            PolygonError::SelfIntersecting => write!(f, "polygon outline self-intersects"),
        }
    }
}

impl std::error::Error for PolygonError {}

/// A closed rectilinear polygon, stored as its vertex loop (the closing
/// edge from the last vertex back to the first is implicit).
///
/// ```
/// use ganopc_geometry::polygon::Polygon;
/// // An L-shape.
/// let poly = Polygon::new(vec![
///     (0, 0), (200, 0), (200, 80), (80, 80), (80, 300), (0, 300),
/// ])?;
/// assert_eq!(poly.area(), 200 * 80 + 80 * 220);
/// let rects = poly.to_rects();
/// assert_eq!(rects.len(), 2);
/// # Ok::<(), ganopc_geometry::polygon::PolygonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polygon {
    vertices: Vec<(i64, i64)>,
}

impl Polygon {
    /// Validates and wraps a vertex loop.
    ///
    /// # Errors
    ///
    /// Returns [`PolygonError`] for outlines that are too short or too long
    /// (more than 1 024 vertices), contain diagonal or zero-length edges, or
    /// self-intersect.
    pub fn new(vertices: Vec<(i64, i64)>) -> Result<Self, PolygonError> {
        if vertices.len() > MAX_VERTICES {
            return Err(PolygonError::TooManyVertices(vertices.len()));
        }
        if vertices.len() < 4 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        let n = vertices.len();
        for i in 0..n {
            let (x0, y0) = vertices[i];
            let (x1, y1) = vertices[(i + 1) % n];
            if x0 == x1 && y0 == y1 {
                return Err(PolygonError::DegenerateEdge { edge: i });
            }
            if x0 != x1 && y0 != y1 {
                return Err(PolygonError::NotRectilinear { edge: i });
            }
        }
        let poly = Polygon { vertices };
        // Scanline validation: every band must contain an even number of
        // vertical-edge crossings.
        if poly.scan_bands().is_none() {
            return Err(PolygonError::SelfIntersecting);
        }
        Ok(poly)
    }

    /// The vertex loop.
    pub fn vertices(&self) -> &[(i64, i64)] {
        &self.vertices
    }

    /// Per-y-band x-intervals of the interior (scanline decomposition).
    /// Returns `None` when a band has an odd crossing count (invalid
    /// outline). Each band is `(y_lo, y_hi, x-intervals)`.
    fn scan_bands(&self) -> Option<Vec<ScanBand>> {
        let n = self.vertices.len();
        // Vertical edges as (x, y_lo, y_hi).
        let mut verticals = Vec::new();
        for i in 0..n {
            let (x0, y0) = self.vertices[i];
            let (x1, y1) = self.vertices[(i + 1) % n];
            if x0 == x1 {
                verticals.push((x0, y0.min(y1), y0.max(y1)));
            }
        }
        let mut ys: Vec<i64> = verticals.iter().flat_map(|v| [v.1, v.2]).collect();
        ys.sort_unstable();
        ys.dedup();
        let mut bands = Vec::new();
        for band in ys.windows(2) {
            let (y0, y1) = (band[0], band[1]);
            let mut xs: Vec<i64> =
                verticals.iter().filter(|v| v.1 <= y0 && v.2 >= y1).map(|v| v.0).collect();
            xs.sort_unstable();
            if !xs.len().is_multiple_of(2) {
                return None;
            }
            let intervals: Vec<(i64, i64)> = xs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            bands.push((y0, y1, intervals));
        }
        Some(bands)
    }

    /// Interior area.
    pub fn area(&self) -> i64 {
        self.scan_bands()
            // PANIC: Polygon::new only accepts outlines scan_bands handles.
            .expect("validated at construction")
            .iter()
            .map(|(y0, y1, intervals)| {
                let width: i64 = intervals.iter().map(|(a, b)| b - a).sum();
                width * (y1 - y0)
            })
            .sum()
    }

    /// Decomposes the interior into non-overlapping horizontal rectangles,
    /// merging vertically where adjacent bands share intervals.
    pub fn to_rects(&self) -> Vec<Rect> {
        // PANIC: Polygon::new only accepts outlines scan_bands handles.
        let bands = self.scan_bands().expect("validated at construction");
        let mut out: Vec<Rect> = Vec::new();
        // Active rectangles currently open for vertical merging.
        let mut open: Vec<Rect> = Vec::new();
        for (y0, y1, intervals) in bands {
            let mut next_open = Vec::with_capacity(intervals.len());
            for (x0, x1) in intervals {
                // Try to extend an open rect with identical x-span ending
                // at y0.
                if let Some(pos) = open.iter().position(|r| r.x0 == x0 && r.x1 == x1 && r.y1 == y0)
                {
                    let mut r = open.swap_remove(pos);
                    r.y1 = y1;
                    next_open.push(r);
                } else {
                    next_open.push(Rect { x0, y0, x1, y1 });
                }
            }
            out.append(&mut open);
            open = next_open;
        }
        out.extend(open);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::union_area;

    fn l_shape() -> Polygon {
        Polygon::new(vec![(0, 0), (200, 0), (200, 80), (80, 80), (80, 300), (0, 300)]).unwrap()
    }

    #[test]
    fn rejects_invalid_outlines() {
        assert_eq!(
            Polygon::new(vec![(0, 0), (1, 0), (1, 1)]),
            Err(PolygonError::TooFewVertices(3))
        );
        assert_eq!(
            Polygon::new(vec![(0, 0), (5, 5), (5, 0), (0, 0), (0, 5), (1, 5)]).unwrap_err(),
            PolygonError::NotRectilinear { edge: 0 }
        );
        assert_eq!(
            Polygon::new(vec![(0, 0), (0, 0), (5, 0), (5, 5), (0, 5), (0, 1)]).unwrap_err(),
            PolygonError::DegenerateEdge { edge: 0 }
        );
    }

    #[test]
    fn rectangle_roundtrip() {
        let r = Rect::new(10, 20, 110, 220);
        let p = Polygon::new(vec![(10, 20), (110, 20), (110, 220), (10, 220)]).unwrap();
        assert_eq!(p.area(), r.area());
        assert_eq!(p.to_rects(), vec![r]);
    }

    #[test]
    fn l_shape_area_and_decomposition() {
        let p = l_shape();
        assert_eq!(p.area(), 200 * 80 + 80 * 220);
        let rects = p.to_rects();
        assert_eq!(union_area(&rects), p.area());
        // Decomposition is disjoint.
        for (i, a) in rects.iter().enumerate() {
            for b in rects.iter().skip(i + 1) {
                assert!(!a.intersects(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn t_shape_decomposition() {
        // A T: horizontal bar with a stem.
        let p = Polygon::new(vec![
            (0, 0),
            (300, 0),
            (300, 80),
            (190, 80),
            (190, 280),
            (110, 280),
            (110, 80),
            (0, 80),
        ])
        .unwrap();
        assert_eq!(p.area(), 300 * 80 + 80 * 200);
        let rects = p.to_rects();
        assert_eq!(union_area(&rects), p.area());
        assert_eq!(rects.len(), 2);
    }

    #[test]
    fn u_shape_has_two_intervals_per_band() {
        let p = Polygon::new(vec![
            (0, 0),
            (300, 0),
            (300, 300),
            (220, 300),
            (220, 80),
            (80, 80),
            (80, 300),
            (0, 300),
        ])
        .unwrap();
        let rects = p.to_rects();
        assert_eq!(union_area(&rects), p.area());
        // Bottom bar + two prongs.
        assert_eq!(rects.len(), 3);
    }

    #[test]
    fn vertical_merging_minimizes_rect_count() {
        // A plus-shape decomposes into 3 rects (left arm, tall center
        // column, right arm), not 3 bands x intervals.
        let p = Polygon::new(vec![
            (100, 0),
            (200, 0),
            (200, 100),
            (300, 100),
            (300, 200),
            (200, 200),
            (200, 300),
            (100, 300),
            (100, 200),
            (0, 200),
            (0, 100),
            (100, 100),
        ])
        .unwrap();
        let rects = p.to_rects();
        assert_eq!(union_area(&rects), p.area());
        assert_eq!(rects.len(), 3, "{rects:?}");
    }

    #[test]
    fn display_of_errors() {
        assert!(PolygonError::SelfIntersecting.to_string().contains("self-intersects"));
        assert!(PolygonError::TooFewVertices(2).to_string().contains("got 2"));
        assert!(PolygonError::TooManyVertices(1028).to_string().contains("1028 vertices"));
    }
}
