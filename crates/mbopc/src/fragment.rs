//! Edge fragmentation: splitting rectangle edges into movable segments.

use ganopc_geometry::{Layout, Rect};

/// Which side of its parent rectangle an edge segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeSide {
    /// Left edge (`x0`), outward normal −x.
    Left,
    /// Right edge (`x1`), outward normal +x.
    Right,
    /// Bottom edge (`y0`), outward normal −y.
    Bottom,
    /// Top edge (`y1`), outward normal +y.
    Top,
}

impl EdgeSide {
    /// The outward unit normal `(nx, ny)`.
    pub fn outward_normal(self) -> (f64, f64) {
        match self {
            EdgeSide::Left => (-1.0, 0.0),
            EdgeSide::Right => (1.0, 0.0),
            EdgeSide::Bottom => (0.0, -1.0),
            EdgeSide::Top => (0.0, 1.0),
        }
    }
}

/// One movable edge segment with its accumulated normal offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Index of the parent shape in the source layout.
    pub shape_index: usize,
    /// Edge the segment lives on.
    pub side: EdgeSide,
    /// Span start along the edge, nm (x for horizontal edges, y for
    /// vertical ones).
    pub span_lo: i64,
    /// Span end along the edge, nm.
    pub span_hi: i64,
    /// Edge coordinate, nm (the x of a vertical edge / y of a horizontal
    /// edge, *before* correction).
    pub edge_coord: i64,
    /// Accumulated normal offset, nm. Positive = outward.
    pub offset_nm: i64,
}

impl Segment {
    /// A measurement point at fraction `frac ∈ [0, 1]` along the segment
    /// span, returned as `(x_nm, y_nm)` on the drawn edge.
    pub fn point_at(&self, frac: f64) -> (f64, f64) {
        let along = self.span_lo as f64 + frac * (self.span_hi - self.span_lo) as f64;
        match self.side {
            EdgeSide::Left | EdgeSide::Right => (self.edge_coord as f64, along),
            EdgeSide::Bottom | EdgeSide::Top => (along, self.edge_coord as f64),
        }
    }

    /// Control-point x in nm (segment midpoint projected on the edge).
    pub fn control_x_nm(&self) -> f64 {
        match self.side {
            EdgeSide::Left | EdgeSide::Right => self.edge_coord as f64,
            EdgeSide::Bottom | EdgeSide::Top => (self.span_lo + self.span_hi) as f64 / 2.0,
        }
    }

    /// Control-point y in nm.
    pub fn control_y_nm(&self) -> f64 {
        match self.side {
            EdgeSide::Left | EdgeSide::Right => (self.span_lo + self.span_hi) as f64 / 2.0,
            EdgeSide::Bottom | EdgeSide::Top => self.edge_coord as f64,
        }
    }

    /// The correction slab for a given offset: the rectangle between the
    /// original edge and the moved edge. For positive offsets this is mask
    /// area to *add* outside the edge; for negative offsets, area to
    /// *remove* inside it.
    pub fn slab(&self, offset: i64) -> Rect {
        let o = offset;
        match self.side {
            EdgeSide::Right => Rect::new(
                self.edge_coord.min(self.edge_coord + o),
                self.span_lo,
                self.edge_coord.max(self.edge_coord + o),
                self.span_hi,
            ),
            EdgeSide::Left => Rect::new(
                self.edge_coord.min(self.edge_coord - o),
                self.span_lo,
                self.edge_coord.max(self.edge_coord - o),
                self.span_hi,
            ),
            EdgeSide::Top => Rect::new(
                self.span_lo,
                self.edge_coord.min(self.edge_coord + o),
                self.span_hi,
                self.edge_coord.max(self.edge_coord + o),
            ),
            EdgeSide::Bottom => Rect::new(
                self.span_lo,
                self.edge_coord.min(self.edge_coord - o),
                self.span_hi,
                self.edge_coord.max(self.edge_coord - o),
            ),
        }
    }
}

/// A layout whose shape edges have been fractured into segments.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentedLayout {
    segments: Vec<Segment>,
}

impl FragmentedLayout {
    /// Fractures every edge of every shape into segments of at most
    /// `segment_length_nm` (edges shorter than that become one segment).
    ///
    /// # Errors
    ///
    /// Returns an error for empty layouts, nonpositive segment lengths, or
    /// layouts containing empty rectangles.
    pub fn fragment(layout: &Layout, segment_length_nm: i64) -> Result<Self, String> {
        if layout.is_empty() {
            return Err("cannot fragment an empty layout".into());
        }
        if segment_length_nm <= 0 {
            return Err(format!("segment length {segment_length_nm} must be positive"));
        }
        let mut segments = Vec::new();
        for (idx, rect) in layout.shapes().iter().enumerate() {
            if rect.is_empty() {
                return Err(format!("shape {idx} is an empty rectangle"));
            }
            let mut push_edge = |side: EdgeSide, lo: i64, hi: i64, coord: i64| {
                let len = hi - lo;
                let pieces = (len + segment_length_nm - 1) / segment_length_nm;
                for p in 0..pieces {
                    let s_lo = lo + p * len / pieces;
                    let s_hi = lo + (p + 1) * len / pieces;
                    segments.push(Segment {
                        shape_index: idx,
                        side,
                        span_lo: s_lo,
                        span_hi: s_hi,
                        edge_coord: coord,
                        offset_nm: 0,
                    });
                }
            };
            push_edge(EdgeSide::Left, rect.y0, rect.y1, rect.x0);
            push_edge(EdgeSide::Right, rect.y0, rect.y1, rect.x1);
            push_edge(EdgeSide::Bottom, rect.x0, rect.x1, rect.y0);
            push_edge(EdgeSide::Top, rect.x0, rect.x1, rect.y1);
        }
        Ok(FragmentedLayout { segments })
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Mutable segment access (the correction loop adjusts offsets).
    pub fn segments_mut(&mut self) -> &mut [Segment] {
        &mut self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` when no segments exist (never for fragmented layouts).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_clip() -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 1000, 1000));
        l.push(Rect::from_origin_size(100, 100, 200, 200));
        l
    }

    #[test]
    fn segment_count_matches_geometry() {
        // 200 nm edges at 50 nm segments → 4 per edge × 4 edges.
        let f = FragmentedLayout::fragment(&square_clip(), 50).unwrap();
        assert_eq!(f.len(), 16);
        // One segment per edge when segments are long enough.
        let g = FragmentedLayout::fragment(&square_clip(), 500).unwrap();
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn segments_tile_each_edge_exactly() {
        let f = FragmentedLayout::fragment(&square_clip(), 60).unwrap();
        for side in [EdgeSide::Left, EdgeSide::Right, EdgeSide::Top, EdgeSide::Bottom] {
            let mut spans: Vec<(i64, i64)> = f
                .segments()
                .iter()
                .filter(|s| s.side == side)
                .map(|s| (s.span_lo, s.span_hi))
                .collect();
            spans.sort_unstable();
            assert_eq!(spans.first().unwrap().0, 100);
            assert_eq!(spans.last().unwrap().1, 300);
            for pair in spans.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "gap/overlap between segments");
            }
        }
    }

    #[test]
    fn control_points_sit_on_edges() {
        let f = FragmentedLayout::fragment(&square_clip(), 500).unwrap();
        for s in f.segments() {
            match s.side {
                EdgeSide::Left => assert_eq!(s.control_x_nm(), 100.0),
                EdgeSide::Right => assert_eq!(s.control_x_nm(), 300.0),
                EdgeSide::Bottom => assert_eq!(s.control_y_nm(), 100.0),
                EdgeSide::Top => assert_eq!(s.control_y_nm(), 300.0),
            }
            // Midpoints along the edge.
            match s.side {
                EdgeSide::Left | EdgeSide::Right => assert_eq!(s.control_y_nm(), 200.0),
                _ => assert_eq!(s.control_x_nm(), 200.0),
            }
        }
    }

    #[test]
    fn slabs_extend_outward_for_positive_offsets() {
        let f = FragmentedLayout::fragment(&square_clip(), 500).unwrap();
        for s in f.segments() {
            let slab = s.slab(20);
            assert_eq!(slab.area(), 200 * 20, "side {:?}", s.side);
            // The slab must lie outside the original square for + offsets.
            let square = Rect::new(100, 100, 300, 300);
            match s.side {
                EdgeSide::Right => assert_eq!(slab.x0, square.x1),
                EdgeSide::Left => assert_eq!(slab.x1, square.x0),
                EdgeSide::Top => assert_eq!(slab.y0, square.y1),
                EdgeSide::Bottom => assert_eq!(slab.y1, square.y0),
            }
        }
    }

    #[test]
    fn slabs_bite_inward_for_negative_offsets() {
        let f = FragmentedLayout::fragment(&square_clip(), 500).unwrap();
        let square = Rect::new(100, 100, 300, 300);
        for s in f.segments() {
            let slab = s.slab(-20);
            assert!(square.contains_rect(&slab), "side {:?}: {slab}", s.side);
        }
    }

    #[test]
    fn fragment_rejects_bad_inputs() {
        let empty = Layout::new(Rect::new(0, 0, 10, 10));
        assert!(FragmentedLayout::fragment(&empty, 50).is_err());
        assert!(FragmentedLayout::fragment(&square_clip(), 0).is_err());
    }

    #[test]
    fn outward_normals_are_unit() {
        for side in [EdgeSide::Left, EdgeSide::Right, EdgeSide::Top, EdgeSide::Bottom] {
            let (nx, ny) = side.outward_normal();
            assert_eq!(nx * nx + ny * ny, 1.0);
        }
    }
}
