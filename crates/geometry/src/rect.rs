//! Axis-aligned integer rectangles in nanometers.

use std::fmt;

/// A half-open, axis-aligned rectangle `[x0, x1) × [y0, y1)` in integer
/// nanometers.
///
/// The half-open convention means two rectangles sharing an edge *abut*
/// without overlapping, and a rectangle's [`area`](Rect::area) equals
/// `width * height` exactly.
///
/// ```
/// use ganopc_geometry::Rect;
/// let r = Rect::new(0, 0, 80, 400);
/// assert_eq!(r.width(), 80);
/// assert_eq!(r.height(), 400);
/// assert_eq!(r.area(), 32_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i64,
    /// Bottom edge (inclusive).
    pub y0: i64,
    /// Right edge (exclusive).
    pub x1: i64,
    /// Top edge (exclusive).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle, normalizing corner order.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// A rectangle from origin and size.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    pub fn from_origin_size(x: i64, y: i64, w: i64, h: i64) -> Self {
        assert!(w >= 0 && h >= 0, "negative size {w}x{h}");
        Rect { x0: x, y0: y, x1: x + w, y1: y + h }
    }

    /// Width `x1 - x0`.
    #[inline]
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height `y1 - y0`.
    #[inline]
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    #[inline]
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// Returns `true` when the rectangle encloses no area.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Shorter of the two sides — the *critical dimension* of a wire segment.
    #[inline]
    pub fn critical_dimension(&self) -> i64 {
        self.width().min(self.height())
    }

    /// Returns `true` when `self` and `other` share interior area.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// The overlapping region, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let r = Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        };
        if r.is_empty() {
            None
        } else {
            Some(r)
        }
    }

    /// Returns `true` when `other` lies fully inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && self.x1 >= other.x1 && self.y1 >= other.y1
    }

    /// Returns `true` when the point `(x, y)` lies inside.
    #[inline]
    pub fn contains_point(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Translates by `(dx, dy)`.
    pub fn translate(&self, dx: i64, dy: i64) -> Rect {
        Rect { x0: self.x0 + dx, y0: self.y0 + dy, x1: self.x1 + dx, y1: self.y1 + dy }
    }

    /// Minimum gap between two *disjoint* rectangles along the axes
    /// (Chebyshev-style: the larger of the per-axis gaps, 0 if they overlap
    /// or abut in both axes).
    ///
    /// This is the quantity design rules constrain: two wires at spacing `s`
    /// have `gap == s`.
    pub fn gap(&self, other: &Rect) -> i64 {
        let dx = (other.x0 - self.x1).max(self.x0 - other.x1).max(0);
        let dy = (other.y0 - self.y1).max(self.y0 - other.y1).max(0);
        dx.max(dy)
    }

    /// Per-axis gaps `(dx, dy)`; each is 0 when the projections overlap.
    pub fn axis_gaps(&self, other: &Rect) -> (i64, i64) {
        let dx = (other.x0 - self.x1).max(self.x0 - other.x1).max(0);
        let dy = (other.y0 - self.y1).max(self.y0 - other.y1).max(0);
        (dx, dy)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} {}x{}]", self.x0, self.y0, self.width(), self.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(10, 20, 0, 5);
        assert_eq!(r, Rect { x0: 0, y0: 5, x1: 10, y1: 20 });
    }

    #[test]
    fn area_and_cd() {
        let r = Rect::from_origin_size(0, 0, 80, 400);
        assert_eq!(r.area(), 32_000);
        assert_eq!(r.critical_dimension(), 80);
    }

    #[test]
    fn empty_rect() {
        assert!(Rect { x0: 0, y0: 0, x1: 0, y1: 10 }.is_empty());
        assert!(!Rect::new(0, 0, 1, 1).is_empty());
    }

    #[test]
    fn abutting_rects_do_not_intersect() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.gap(&b), 0);
    }

    #[test]
    fn intersection_overlapping() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
    }

    #[test]
    fn gap_between_separated_wires() {
        // Two vertical wires with 60 nm horizontal spacing.
        let a = Rect::from_origin_size(0, 0, 80, 500);
        let b = Rect::from_origin_size(140, 0, 80, 500);
        assert_eq!(a.gap(&b), 60);
        assert_eq!(a.axis_gaps(&b), (60, 0));
        // Tip-to-tip: same column, vertical gap.
        let c = Rect::from_origin_size(0, 560, 80, 200);
        assert_eq!(a.gap(&c), 60);
        assert_eq!(a.axis_gaps(&c), (0, 60));
    }

    #[test]
    fn diagonal_gap_uses_max_axis() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(15, 30, 20, 40);
        assert_eq!(a.axis_gaps(&b), (5, 20));
        assert_eq!(a.gap(&b), 20);
    }

    #[test]
    fn translate_moves_all_sides() {
        let r = Rect::new(5, 5, 10, 10);
        assert_eq!(r.translate(-5, 5), Rect::new(0, 10, 5, 15));
    }

    #[test]
    fn contains_point_half_open() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains_point(0, 0));
        assert!(r.contains_point(9, 9));
        assert!(!r.contains_point(10, 0));
        assert!(!r.contains_point(0, 10));
    }

    #[test]
    #[should_panic(expected = "negative size")]
    fn from_origin_size_rejects_negative() {
        let _ = Rect::from_origin_size(0, 0, -1, 5);
    }
}
