//! Design-rule checking for synthesized clips.
//!
//! The synthesizer in [`crate::synthesis`] must emit layouts that satisfy the
//! Table 1 rules; this module provides the independent checker used by its
//! tests (and available to users validating their own clips).

use crate::{DesignRules, Layout, Rect};
use std::fmt;

/// Classification of the gap between two shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapKind {
    /// Facing line ends along the wire direction (tip-to-tip rule).
    TipToTip,
    /// Parallel run side-to-side (spacing / pitch rule).
    SideToSide,
    /// Diagonal corner-to-corner adjacency.
    Corner,
}

impl fmt::Display for GapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GapKind::TipToTip => "tip-to-tip",
            GapKind::SideToSide => "side-to-side",
            GapKind::Corner => "corner",
        };
        f.write_str(s)
    }
}

/// A single design-rule violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Shape `index` is narrower than the minimum critical dimension.
    Width {
        /// Index into [`Layout::shapes`].
        index: usize,
        /// Observed critical dimension, nm.
        cd_nm: i64,
    },
    /// Shapes `a` and `b` are closer than the applicable minimum.
    Spacing {
        /// First shape index.
        a: usize,
        /// Second shape index.
        b: usize,
        /// Observed gap, nm.
        gap_nm: i64,
        /// Which rule the gap falls under.
        kind: GapKind,
    },
    /// Shape `index` extends beyond the clip frame.
    OutOfFrame {
        /// Index into [`Layout::shapes`].
        index: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Width { index, cd_nm } => {
                write!(f, "shape {index}: cd {cd_nm} nm below minimum")
            }
            Violation::Spacing { a, b, gap_nm, kind } => {
                write!(f, "shapes {a},{b}: {kind} gap {gap_nm} nm below minimum")
            }
            Violation::OutOfFrame { index } => write!(f, "shape {index}: outside clip frame"),
        }
    }
}

/// Classifies the adjacency between two disjoint rectangles.
///
/// A gap purely in `x` between two *vertical* wires (height > width) is
/// side-to-side; between two *horizontal* wires it is tip-to-tip (facing line
/// ends), and symmetrically for gaps in `y`. Mixed orientations fall back to
/// side-to-side (the tighter interpretation is identical under Table 1 where
/// both minima are 60 nm). Diagonal adjacency is [`GapKind::Corner`].
pub fn classify_gap(a: &Rect, b: &Rect) -> GapKind {
    let (dx, dy) = a.axis_gaps(b);
    if dx > 0 && dy > 0 {
        return GapKind::Corner;
    }
    let horizontal_wires = a.width() >= a.height() && b.width() >= b.height();
    let vertical_wires = a.height() >= a.width() && b.height() >= b.width();
    if dx > 0 {
        // Gap along x: horizontal wires face each other end-to-end.
        if horizontal_wires {
            GapKind::TipToTip
        } else {
            GapKind::SideToSide
        }
    } else if dy > 0 {
        if vertical_wires {
            GapKind::TipToTip
        } else {
            GapKind::SideToSide
        }
    } else {
        // Touching; callers skip this case.
        GapKind::SideToSide
    }
}

/// Checks a layout against a rule set, returning every violation found.
///
/// Shapes that intersect or abut are treated as one connected pattern and are
/// exempt from spacing checks (they form L/T-shapes by construction).
///
/// ```
/// use ganopc_geometry::{drc, DesignRules, Layout, Rect};
/// let rules = DesignRules::m1_32nm();
/// let mut clip = Layout::new(Rect::new(0, 0, 1000, 1000));
/// clip.push(Rect::from_origin_size(0, 0, 80, 500));
/// clip.push(Rect::from_origin_size(120, 0, 80, 500)); // only 40 nm away
/// let violations = drc::check(&clip, &rules);
/// assert_eq!(violations.len(), 1);
/// ```
pub fn check(layout: &Layout, rules: &DesignRules) -> Vec<Violation> {
    let mut violations = Vec::new();
    let frame = layout.frame();
    let shapes = layout.shapes();
    for (i, s) in shapes.iter().enumerate() {
        if s.critical_dimension() < rules.min_cd_nm {
            violations.push(Violation::Width { index: i, cd_nm: s.critical_dimension() });
        }
        if !frame.contains_rect(s) {
            violations.push(Violation::OutOfFrame { index: i });
        }
    }
    for i in 0..shapes.len() {
        for j in i + 1..shapes.len() {
            let (a, b) = (&shapes[i], &shapes[j]);
            let gap = a.gap(b);
            if gap == 0 {
                continue; // touching or overlapping: same pattern
            }
            let kind = classify_gap(a, b);
            let min = match kind {
                GapKind::TipToTip => rules.min_tip_to_tip_nm,
                GapKind::SideToSide | GapKind::Corner => rules.min_spacing_nm(),
            };
            if gap < min {
                violations.push(Violation::Spacing { a: i, b: j, gap_nm: gap, kind });
            }
        }
    }
    violations
}

/// Convenience: `true` when the layout is violation-free.
pub fn is_clean(layout: &Layout, rules: &DesignRules) -> bool {
    check(layout, rules).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Rect {
        Rect::new(0, 0, 2048, 2048)
    }

    #[test]
    fn clean_minimum_pitch_pair_passes() {
        let rules = DesignRules::m1_32nm();
        let clip = Layout::with_shapes(
            frame(),
            vec![
                Rect::from_origin_size(100, 100, 80, 600),
                Rect::from_origin_size(240, 100, 80, 600), // pitch exactly 140
            ],
        );
        assert!(is_clean(&clip, &rules), "{:?}", check(&clip, &rules));
    }

    #[test]
    fn narrow_wire_flags_width() {
        let rules = DesignRules::m1_32nm();
        let clip = Layout::with_shapes(frame(), vec![Rect::from_origin_size(0, 0, 79, 500)]);
        let v = check(&clip, &rules);
        assert_eq!(v, vec![Violation::Width { index: 0, cd_nm: 79 }]);
    }

    #[test]
    fn close_parallel_wires_flag_spacing() {
        let rules = DesignRules::m1_32nm();
        let clip = Layout::with_shapes(
            frame(),
            vec![
                Rect::from_origin_size(0, 0, 80, 500),
                Rect::from_origin_size(139, 0, 80, 500), // 59 nm gap
            ],
        );
        let v = check(&clip, &rules);
        assert_eq!(
            v,
            vec![Violation::Spacing { a: 0, b: 1, gap_nm: 59, kind: GapKind::SideToSide }]
        );
    }

    #[test]
    fn close_line_ends_flag_tip_to_tip() {
        let rules = DesignRules::m1_32nm();
        let clip = Layout::with_shapes(
            frame(),
            vec![
                Rect::from_origin_size(0, 0, 80, 500),
                Rect::from_origin_size(0, 559, 80, 300), // 59 nm vertical gap
            ],
        );
        let v = check(&clip, &rules);
        assert_eq!(v, vec![Violation::Spacing { a: 0, b: 1, gap_nm: 59, kind: GapKind::TipToTip }]);
    }

    #[test]
    fn touching_shapes_are_exempt() {
        // An L-shape: two abutting rects, no spacing violation.
        let rules = DesignRules::m1_32nm();
        let clip = Layout::with_shapes(
            frame(),
            vec![Rect::from_origin_size(0, 0, 80, 500), Rect::from_origin_size(80, 0, 400, 80)],
        );
        assert!(is_clean(&clip, &rules));
    }

    #[test]
    fn out_of_frame_detected() {
        let rules = DesignRules::m1_32nm();
        let clip = Layout::with_shapes(
            Rect::new(0, 0, 100, 100),
            vec![Rect::from_origin_size(50, 50, 80, 80)],
        );
        let v = check(&clip, &rules);
        assert!(v.contains(&Violation::OutOfFrame { index: 0 }));
    }

    #[test]
    fn classify_gap_cases() {
        // Vertical wires separated horizontally → side-to-side.
        let a = Rect::from_origin_size(0, 0, 80, 400);
        let b = Rect::from_origin_size(200, 0, 80, 400);
        assert_eq!(classify_gap(&a, &b), GapKind::SideToSide);
        // Vertical wires separated vertically → tip-to-tip.
        let c = Rect::from_origin_size(0, 500, 80, 400);
        assert_eq!(classify_gap(&a, &c), GapKind::TipToTip);
        // Horizontal wires separated horizontally → tip-to-tip.
        let d = Rect::from_origin_size(0, 0, 400, 80);
        let e = Rect::from_origin_size(500, 0, 400, 80);
        assert_eq!(classify_gap(&d, &e), GapKind::TipToTip);
        // Diagonal.
        let f = Rect::from_origin_size(200, 600, 80, 80);
        assert_eq!(classify_gap(&a, &f), GapKind::Corner);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::Spacing { a: 1, b: 2, gap_nm: 40, kind: GapKind::TipToTip };
        assert_eq!(v.to_string(), "shapes 1,2: tip-to-tip gap 40 nm below minimum");
        let w = Violation::Width { index: 0, cd_nm: 10 };
        assert!(w.to_string().contains("cd 10 nm"));
    }
}
