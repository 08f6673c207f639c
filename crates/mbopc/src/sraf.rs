//! Rule-based sub-resolution assist feature (SRAF) insertion.
//!
//! SRAFs — "scattering bars" — are narrow mask features placed parallel to
//! *isolated* edges. They are below the resolution limit (they never print)
//! but diffract light so the isolated edge images more like a dense one,
//! widening the process window (paper ref \[9\]).

use ganopc_geometry::{Layout, Rect};

/// SRAF insertion rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrafRules {
    /// Bar width, nm — must stay below the printing resolution.
    pub width_nm: i64,
    /// Bar distance from the main-feature edge, nm.
    pub gap_nm: i64,
    /// An edge is "isolated" when no other shape lies within this distance.
    pub isolation_nm: i64,
    /// Minimum edge length that earns a bar, nm.
    pub min_edge_nm: i64,
    /// Bar end pull-in from the edge corners, nm.
    pub end_margin_nm: i64,
}

impl Default for SrafRules {
    fn default() -> Self {
        // 40 nm bars (below the ~71 nm minimum printable pitch of the
        // 193i system), 100 nm off the feature, considered isolated when
        // nothing sits within 250 nm.
        SrafRules {
            width_nm: 40,
            gap_nm: 100,
            isolation_nm: 250,
            min_edge_nm: 200,
            end_margin_nm: 40,
        }
    }
}

impl SrafRules {
    /// Validates the rules.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.width_nm <= 0 {
            return Err("sraf width must be positive".into());
        }
        if self.gap_nm <= 0 {
            return Err("sraf gap must be positive".into());
        }
        if self.isolation_nm <= self.gap_nm + self.width_nm {
            return Err("isolation distance must exceed gap + width".into());
        }
        if self.min_edge_nm <= 0 || self.end_margin_nm < 0 {
            return Err("edge-length rules must be nonnegative".into());
        }
        Ok(())
    }
}

/// Inserts scattering bars next to every isolated, long-enough edge of the
/// layout. Bars are clipped so they stay inside the frame and never come
/// closer than `gap_nm` to *any* shape.
///
/// ```
/// use ganopc_geometry::{Layout, Rect};
/// use ganopc_mbopc::sraf::{insert_srafs, SrafRules};
///
/// let mut clip = Layout::new(Rect::new(0, 0, 2048, 2048));
/// clip.push(Rect::from_origin_size(1000, 500, 80, 1000)); // isolated wire
/// let bars = insert_srafs(&clip, &SrafRules::default());
/// assert_eq!(bars.len(), 2); // one bar on each long side
/// ```
pub fn insert_srafs(layout: &Layout, rules: &SrafRules) -> Vec<Rect> {
    let mut bars = Vec::new();
    let frame = layout.frame();
    let shapes = layout.shapes();
    for (idx, rect) in shapes.iter().enumerate() {
        // Candidate bars along the four edges.
        let candidates = [
            // Left.
            (rect.height() >= rules.min_edge_nm).then(|| {
                Rect::new(
                    rect.x0 - rules.gap_nm - rules.width_nm,
                    rect.y0 + rules.end_margin_nm,
                    rect.x0 - rules.gap_nm,
                    rect.y1 - rules.end_margin_nm,
                )
            }),
            // Right.
            (rect.height() >= rules.min_edge_nm).then(|| {
                Rect::new(
                    rect.x1 + rules.gap_nm,
                    rect.y0 + rules.end_margin_nm,
                    rect.x1 + rules.gap_nm + rules.width_nm,
                    rect.y1 - rules.end_margin_nm,
                )
            }),
            // Bottom.
            (rect.width() >= rules.min_edge_nm).then(|| {
                Rect::new(
                    rect.x0 + rules.end_margin_nm,
                    rect.y0 - rules.gap_nm - rules.width_nm,
                    rect.x1 - rules.end_margin_nm,
                    rect.y0 - rules.gap_nm,
                )
            }),
            // Top.
            (rect.width() >= rules.min_edge_nm).then(|| {
                Rect::new(
                    rect.x0 + rules.end_margin_nm,
                    rect.y1 + rules.gap_nm,
                    rect.x1 - rules.end_margin_nm,
                    rect.y1 + rules.gap_nm + rules.width_nm,
                )
            }),
        ];
        for bar in candidates.into_iter().flatten() {
            if bar.is_empty() || !frame.contains_rect(&bar) {
                continue;
            }
            // Isolation: the *source edge* has no neighbour within range —
            // probe a slab extending isolation_nm beyond the bar.
            let probe = bar.expand(rules.isolation_nm - rules.gap_nm - rules.width_nm);
            let crowded = shapes.iter().enumerate().any(|(j, s)| j != idx && probe.intersects(s));
            if crowded {
                continue;
            }
            // Never closer than gap to any shape, and keep bars disjoint.
            let too_close = shapes.iter().any(|s| bar.gap(s) < rules.gap_nm && !bar.intersects(s))
                || shapes.iter().any(|s| bar.intersects(s))
                || bars.iter().any(|b: &Rect| b.intersects(&bar) || b.gap(&bar) < rules.width_nm);
            if too_close {
                continue;
            }
            bars.push(bar);
        }
    }
    bars
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Rect {
        Rect::new(0, 0, 2048, 2048)
    }

    #[test]
    fn isolated_wire_gets_two_side_bars() {
        let mut clip = Layout::new(frame());
        clip.push(Rect::from_origin_size(1000, 500, 80, 1000));
        let bars = insert_srafs(&clip, &SrafRules::default());
        assert_eq!(bars.len(), 2);
        for bar in &bars {
            assert_eq!(bar.width(), 40);
            assert_eq!(bar.gap(&clip.shapes()[0]), 100);
        }
    }

    #[test]
    fn dense_wires_get_no_bars_between_them() {
        let mut clip = Layout::new(frame());
        clip.push(Rect::from_origin_size(1000, 500, 80, 1000));
        clip.push(Rect::from_origin_size(1140, 500, 80, 1000)); // 60 nm away
        let bars = insert_srafs(&clip, &SrafRules::default());
        // Only the two outermost sides may carry bars.
        for bar in &bars {
            let between = bar.x0 >= 1080 && bar.x1 <= 1140;
            assert!(!between, "bar {bar} placed in the dense gap");
        }
    }

    #[test]
    fn short_edges_are_skipped() {
        let mut clip = Layout::new(frame());
        clip.push(Rect::from_origin_size(1000, 1000, 80, 120)); // stub
        let bars = insert_srafs(&clip, &SrafRules::default());
        assert!(bars.is_empty(), "{bars:?}");
    }

    #[test]
    fn bars_stay_inside_the_frame() {
        let mut clip = Layout::new(frame());
        clip.push(Rect::from_origin_size(20, 500, 80, 1000)); // near left frame edge
        let bars = insert_srafs(&clip, &SrafRules::default());
        for bar in &bars {
            assert!(frame().contains_rect(bar), "{bar}");
        }
    }

    #[test]
    fn bars_never_print() {
        // End-to-end: a bar inserted by default rules must not appear in
        // the wafer image.
        use ganopc_litho::{LithoModel, OpticalConfig};
        let mut cfg = OpticalConfig::default_32nm(16.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 8;
        let model = LithoModel::new(cfg, 128, 128).unwrap();
        let mut clip = Layout::new(frame());
        clip.push(Rect::from_origin_size(1000, 400, 80, 1200));
        let bars = insert_srafs(&clip, &SrafRules::default());
        assert!(!bars.is_empty());
        let mut with_bars = clip.clone();
        with_bars.extend(bars.iter().copied());
        let wafer = model.print_nominal(&with_bars.rasterize_raster(128, 128));
        // No printed pixel where only a bar exists.
        let bars_only = Layout::with_shapes(frame(), bars.clone()).rasterize_raster(128, 128);
        let main_only = clip.rasterize_raster(128, 128);
        for i in 0..wafer.len() {
            let bar_px = bars_only.as_slice()[i] > 0.5;
            let main_near = main_only.as_slice()[i] > 0.0;
            if bar_px && !main_near {
                assert_eq!(wafer.as_slice()[i], 0.0, "SRAF printed at pixel {i}");
            }
        }
    }

    #[test]
    fn rules_validate() {
        assert!(SrafRules::default().validate().is_ok());
        let bad = SrafRules { isolation_nm: 50, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SrafRules { width_nm: 0, ..Default::default() };
        assert!(bad.validate().is_err());
    }
}
