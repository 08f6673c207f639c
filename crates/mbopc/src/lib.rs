//! Model-based OPC: the *other* conventional mask-optimization family the
//! GAN-OPC paper positions itself against (Section 1, refs \[3\]–\[5\]).
//!
//! Where ILT treats the mask as a pixel field, model-based OPC keeps the
//! mask geometric: target polygon edges are **fractured into segments**
//! which are then **shifted along their normals** according to simulated
//! edge-placement error, optionally after inserting **sub-resolution assist
//! features** (SRAFs, ref \[9\]) next to isolated edges. The paper notes
//! these flows are fast but "highly restricted by their solution space" —
//! this crate lets the repository demonstrate that trade-off directly
//! (`cargo run -p ganopc-bench --release --bin baselines`).
//!
//! * [`fragment`] — edge fragmentation of rectilinear layouts;
//! * [`sraf`] — rule-based scattering-bar insertion;
//! * [`MbOpcEngine`] — the iterative EPE-feedback correction loop.
//!
//! # Example
//!
//! ```
//! use ganopc_mbopc::{MbOpcConfig, MbOpcEngine};
//! use ganopc_geometry::{Layout, Rect};
//! use ganopc_litho::{LithoModel, OpticalConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut opt = OpticalConfig::default_32nm(32.0);
//! opt.pupil_grid = 11;
//! opt.num_kernels = 6;
//! let model = LithoModel::new(opt, 64, 64)?;
//! let mut clip = Layout::new(Rect::new(0, 0, 2048, 2048));
//! clip.push(Rect::from_origin_size(800, 400, 80, 1000));
//! let mut engine = MbOpcEngine::new(model, MbOpcConfig::fast());
//! let result = engine.optimize(&clip)?;
//! assert!(result.binary_l2_nm2 <= *result.l2_history.first().unwrap());
//! # Ok(())
//! # }
//! ```

pub mod fragment;
pub mod sraf;

use fragment::{EdgeSide, FragmentedLayout};
use ganopc_geometry::{Layout, Rect};
use ganopc_litho::{Field, LithoError, LithoModel};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Errors from model-based OPC.
#[derive(Debug)]
pub enum MbOpcError {
    /// Propagated lithography failure.
    Litho(LithoError),
    /// The layout cannot be fragmented (empty, or degenerate shapes).
    Fragmentation(String),
}

impl fmt::Display for MbOpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbOpcError::Litho(e) => write!(f, "lithography failure: {e}"),
            MbOpcError::Fragmentation(msg) => write!(f, "fragmentation failure: {msg}"),
        }
    }
}

impl Error for MbOpcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MbOpcError::Litho(e) => Some(e),
            MbOpcError::Fragmentation(_) => None,
        }
    }
}

impl From<LithoError> for MbOpcError {
    fn from(e: LithoError) -> Self {
        MbOpcError::Litho(e)
    }
}

/// Model-based OPC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MbOpcConfig {
    /// Target segment length after fragmentation, nm.
    pub segment_length_nm: i64,
    /// Correction iterations.
    pub iterations: usize,
    /// Feedback gain: each segment moves by `gain × EPE` per iteration.
    pub gain: f64,
    /// Largest allowed |offset| a segment may accumulate, nm.
    pub max_offset_nm: i64,
    /// EPE search range along the normal, nm.
    pub search_range_nm: f64,
    /// Insert SRAFs next to isolated edges before correction.
    pub insert_srafs: bool,
    /// SRAF rule set (only used when `insert_srafs`).
    pub sraf: sraf::SrafRules,
}

impl MbOpcConfig {
    /// Production-like defaults (40 nm segments, 12 iterations).
    pub fn standard() -> Self {
        MbOpcConfig {
            segment_length_nm: 40,
            iterations: 12,
            gain: 0.6,
            max_offset_nm: 60,
            search_range_nm: 120.0,
            insert_srafs: true,
            sraf: sraf::SrafRules::default(),
        }
    }

    /// Cheap settings for tests and doc examples.
    pub fn fast() -> Self {
        MbOpcConfig {
            segment_length_nm: 80,
            iterations: 4,
            gain: 0.6,
            max_offset_nm: 60,
            search_range_nm: 120.0,
            insert_srafs: false,
            sraf: sraf::SrafRules::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.segment_length_nm <= 0 {
            return Err("segment length must be positive".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if !(0.0..=2.0).contains(&self.gain) || self.gain == 0.0 {
            return Err("gain must lie in (0, 2]".into());
        }
        if self.max_offset_nm <= 0 {
            return Err("max offset must be positive".into());
        }
        self.sraf.validate()
    }
}

impl Default for MbOpcConfig {
    fn default() -> Self {
        MbOpcConfig::standard()
    }
}

/// Outcome of a model-based OPC run.
#[derive(Debug, Clone)]
pub struct MbOpcResult {
    /// The corrected mask raster (including SRAFs if enabled).
    pub mask: Field,
    /// Binary wafer image of the final mask at nominal dose.
    pub wafer: Field,
    /// Squared L2 of the wafer vs the rasterized target, nm².
    pub binary_l2_nm2: f64,
    /// L2 per iteration (measured on the binary wafer).
    pub l2_history: Vec<f64>,
    /// Number of edge segments under correction.
    pub segment_count: usize,
    /// SRAF rectangles inserted (empty when disabled).
    pub srafs: Vec<Rect>,
    /// Wall-clock runtime, seconds.
    pub runtime_s: f64,
}

/// Iterative EPE-feedback model-based OPC engine.
#[derive(Debug)]
pub struct MbOpcEngine {
    model: LithoModel,
    config: MbOpcConfig,
}

impl MbOpcEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MbOpcConfig::validate`].
    pub fn new(model: LithoModel, config: MbOpcConfig) -> Self {
        // PANIC: documented above — misconfiguration is a programming error
        // at construction, not a runtime condition to recover from.
        config.validate().expect("invalid model-based OPC configuration");
        MbOpcEngine { model, config }
    }

    /// The lithography model.
    pub fn model(&self) -> &LithoModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &MbOpcConfig {
        &self.config
    }

    /// Runs the correction loop on a geometric clip.
    ///
    /// # Errors
    ///
    /// Returns [`MbOpcError::Fragmentation`] for empty layouts and
    /// propagates lithography failures.
    pub fn optimize(&mut self, layout: &Layout) -> Result<MbOpcResult, MbOpcError> {
        let start = Instant::now();
        if layout.is_empty() {
            return Err(MbOpcError::Fragmentation("layout has no shapes".into()));
        }
        let (h, w) = self.model.shape();
        let px = self.model.pixel_nm();
        let target = layout.rasterize_raster(w, h).binarize(0.5);

        let srafs = if self.config.insert_srafs {
            sraf::insert_srafs(layout, &self.config.sraf)
        } else {
            Vec::new()
        };

        let mut fragmented = FragmentedLayout::fragment(layout, self.config.segment_length_nm)
            .map_err(MbOpcError::Fragmentation)?;
        // Mask-rule constraint: a segment may move outward at most half the
        // gap to the nearest facing shape (or SRAF), else corrections bridge
        // neighbouring patterns — the failure mode that makes unconstrained
        // MB-OPC *worse* than no OPC on dense clips.
        let clearances = segment_clearances(layout, &srafs, &fragmented, self.config.max_offset_nm);
        let mut history = Vec::with_capacity(self.config.iterations + 1);
        let mut best_offsets: Vec<i64> =
            fragmented.segments().iter().map(|s| s.offset_nm).collect();
        let mut best_l2 = f64::INFINITY;

        for _ in 0..self.config.iterations {
            let mask = self.render_mask(&fragmented, layout, &srafs, h, w);
            let wafer = self.model.print_nominal(&mask);
            let l2 = ganopc_litho::metrics::squared_l2_nm2(&wafer, &target, px);
            history.push(l2);
            if l2 < best_l2 {
                best_l2 = l2;
                best_offsets = fragmented.segments().iter().map(|s| s.offset_nm).collect();
            }
            // Measure EPE at three sites per segment (quarter points and
            // midpoint) and correct on the worst one — midpoint-only
            // sampling is blind to corner rounding between control points.
            for (si, seg) in fragmented.segments_mut().iter_mut().enumerate() {
                let mut epe = 0.0f64;
                for frac in [0.25f64, 0.5, 0.75] {
                    let (cx, cy) = seg.point_at(frac);
                    // Never search past the half-gap to a neighbour: in
                    // dense layouts the contour found beyond it belongs to
                    // the *neighbouring* wire and would read as a giant
                    // negative EPE.
                    let e = measure_epe(
                        &wafer,
                        cx,
                        cy,
                        seg.side,
                        layout.frame(),
                        h,
                        w,
                        self.config.search_range_nm,
                        clearances[si] as f64,
                    );
                    if e.abs() > epe.abs() {
                        epe = e;
                    }
                }
                // Positive EPE ⇒ printed edge inside the drawn edge ⇒ move
                // the mask edge outward (and vice versa).
                let delta = (self.config.gain * epe).round() as i64;
                seg.offset_nm = (seg.offset_nm + delta)
                    .clamp(-self.config.max_offset_nm, self.config.max_offset_nm);
            }
            for (seg, &limit) in fragmented.segments_mut().iter_mut().zip(&clearances) {
                seg.offset_nm = seg.offset_nm.min(limit);
            }
        }

        // Evaluate the final iterate, then keep whichever mask was best.
        let final_mask = self.render_mask(&fragmented, layout, &srafs, h, w);
        let final_wafer = self.model.print_nominal(&final_mask);
        let final_l2 = ganopc_litho::metrics::squared_l2_nm2(&final_wafer, &target, px);
        history.push(final_l2);
        let (mask, wafer, binary_l2_nm2) = if final_l2 <= best_l2 {
            (final_mask, final_wafer, final_l2)
        } else {
            for (seg, &o) in fragmented.segments_mut().iter_mut().zip(&best_offsets) {
                seg.offset_nm = o;
            }
            let mask = self.render_mask(&fragmented, layout, &srafs, h, w);
            let wafer = self.model.print_nominal(&mask);
            (mask, wafer, best_l2)
        };
        Ok(MbOpcResult {
            mask,
            wafer,
            binary_l2_nm2,
            l2_history: history,
            segment_count: fragmented.segments().len(),
            srafs,
            runtime_s: start.elapsed().as_secs_f64(),
        })
    }

    /// Renders the corrected mask: base shapes, plus outward slabs, minus
    /// inward bites, plus SRAFs.
    fn render_mask(
        &self,
        fragmented: &FragmentedLayout,
        layout: &Layout,
        srafs: &[Rect],
        h: usize,
        w: usize,
    ) -> Field {
        let mut additive = Layout::new(layout.frame());
        additive.extend(layout.shapes().iter().copied());
        additive.extend(srafs.iter().copied());
        let mut subtractive = Layout::new(layout.frame());
        for seg in fragmented.segments() {
            if seg.offset_nm > 0 {
                additive.push(seg.slab(seg.offset_nm));
            } else if seg.offset_nm < 0 {
                subtractive.push(seg.slab(seg.offset_nm));
            }
        }
        let add = additive.rasterize_raster(w, h);
        let sub = subtractive.rasterize_raster(w, h);
        Field::from_vec(
            h,
            w,
            add.as_slice()
                .iter()
                .zip(sub.as_slice())
                .map(|(&a, &s)| (a - s).clamp(0.0, 1.0))
                .collect(),
        )
    }
}

/// Computes, for every segment, the maximum outward offset that keeps at
/// least half the original gap to the nearest facing shape or SRAF.
fn segment_clearances(
    layout: &Layout,
    srafs: &[Rect],
    fragmented: &FragmentedLayout,
    max_offset: i64,
) -> Vec<i64> {
    let shapes = layout.shapes();
    fragmented
        .segments()
        .iter()
        .map(|seg| {
            let mut min_gap = i64::MAX;
            let others = shapes
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != seg.shape_index)
                .map(|(_, r)| *r)
                .chain(srafs.iter().copied());
            for r in others {
                let overlap_and_dist = match seg.side {
                    EdgeSide::Right => {
                        (r.y0 < seg.span_hi && seg.span_lo < r.y1 && r.x0 >= seg.edge_coord)
                            .then(|| r.x0 - seg.edge_coord)
                    }
                    EdgeSide::Left => {
                        (r.y0 < seg.span_hi && seg.span_lo < r.y1 && r.x1 <= seg.edge_coord)
                            .then(|| seg.edge_coord - r.x1)
                    }
                    EdgeSide::Top => {
                        (r.x0 < seg.span_hi && seg.span_lo < r.x1 && r.y0 >= seg.edge_coord)
                            .then(|| r.y0 - seg.edge_coord)
                    }
                    EdgeSide::Bottom => {
                        (r.x0 < seg.span_hi && seg.span_lo < r.x1 && r.y1 <= seg.edge_coord)
                            .then(|| seg.edge_coord - r.y1)
                    }
                };
                if let Some(d) = overlap_and_dist {
                    min_gap = min_gap.min(d);
                }
            }
            if min_gap == i64::MAX {
                max_offset
            } else {
                (min_gap / 2).clamp(0, max_offset)
            }
        })
        .collect()
}

/// Measures the signed EPE (nm) at a control point: the distance from the
/// drawn edge to the printed contour along the edge normal. Positive means
/// the print is pulled *inside* the drawn edge (under-exposure), negative
/// means it spills outside.
#[allow(clippy::too_many_arguments)]
fn measure_epe(
    wafer: &Field,
    cx_nm: f64,
    cy_nm: f64,
    side: EdgeSide,
    frame: Rect,
    h: usize,
    w: usize,
    range_nm: f64,
    outward_limit_nm: f64,
) -> f64 {
    let px_x = frame.width() as f64 / w as f64;
    let px_y = frame.height() as f64 / h as f64;
    let to_px = |x_nm: f64, y_nm: f64| -> Option<(usize, usize)> {
        let x = ((x_nm - frame.x0 as f64) / px_x).floor();
        let y = ((y_nm - frame.y0 as f64) / px_y).floor();
        if x < 0.0 || y < 0.0 || x >= w as f64 || y >= h as f64 {
            None
        } else {
            Some((y as usize, x as usize))
        }
    };
    // Outward unit normal in nm.
    let (nx, ny) = side.outward_normal();
    let step = px_x.min(px_y);
    let steps = (range_nm / step).ceil() as i32;
    // Walk inward, sampling at *half-pixel-centered* distances so a
    // perfectly placed contour measures EPE = 0 (sample k sits at
    // (k + 0.5)·step inside the drawn edge and reports EPE = k·step).
    for k in -steps..=steps {
        let d = (k as f64 + 0.5) * step;
        if d < 0.0 && -d > outward_limit_nm {
            continue; // beyond the half-gap: that contour is a neighbour's
        }
        let sx = cx_nm - nx * d;
        let sy = cy_nm - ny * d;
        if let Some((yy, xx)) = to_px(sx, sy) {
            if wafer.get(yy, xx) >= 0.5 {
                return k as f64 * step;
            }
        }
    }
    // Nothing printed within range: maximal pullback.
    range_nm
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganopc_litho::OpticalConfig;

    fn small_model() -> LithoModel {
        let mut cfg = OpticalConfig::default_32nm(32.0);
        cfg.pupil_grid = 11;
        cfg.num_kernels = 6;
        LithoModel::new(cfg, 64, 64).unwrap()
    }

    fn wire_clip() -> Layout {
        let mut clip = Layout::new(Rect::new(0, 0, 2048, 2048));
        clip.push(Rect::from_origin_size(900, 400, 120, 1200));
        clip
    }

    #[test]
    fn correction_reduces_l2() {
        let mut engine = MbOpcEngine::new(small_model(), MbOpcConfig::fast());
        let result = engine.optimize(&wire_clip()).unwrap();
        let first = *result.l2_history.first().unwrap();
        assert!(
            result.binary_l2_nm2 <= first,
            "MB-OPC made things worse: {first} -> {}",
            result.binary_l2_nm2
        );
        assert!(result.segment_count > 0);
        assert!(result.runtime_s > 0.0);
    }

    #[test]
    fn corrected_beats_uncorrected_on_line_ends() {
        // Finer grid (16 nm/px): corner rounding spans several pixels, so
        // segment corrections have room to act.
        let mut ocfg = OpticalConfig::default_32nm(16.0);
        ocfg.pupil_grid = 11;
        ocfg.num_kernels = 6;
        let model = LithoModel::new(ocfg, 128, 128).unwrap();
        let clip = wire_clip();
        let target = clip.rasterize_raster(128, 128).binarize(0.5);
        let px = model.pixel_nm();
        let no_opc =
            ganopc_litho::metrics::squared_l2_nm2(&model.print_nominal(&target), &target, px);
        let mut cfg = MbOpcConfig::fast();
        cfg.iterations = 8;
        cfg.segment_length_nm = 40;
        let mut engine = MbOpcEngine::new(model, cfg);
        let result = engine.optimize(&clip).unwrap();
        assert!(
            result.binary_l2_nm2 < no_opc,
            "MB-OPC {} vs no-OPC {no_opc}",
            result.binary_l2_nm2
        );
    }

    #[test]
    fn empty_layout_rejected() {
        let mut engine = MbOpcEngine::new(small_model(), MbOpcConfig::fast());
        let empty = Layout::new(Rect::new(0, 0, 2048, 2048));
        assert!(matches!(engine.optimize(&empty), Err(MbOpcError::Fragmentation(_))));
    }

    #[test]
    fn srafs_appear_when_enabled() {
        let mut cfg = MbOpcConfig::fast();
        cfg.insert_srafs = true;
        let mut engine = MbOpcEngine::new(small_model(), cfg);
        let result = engine.optimize(&wire_clip()).unwrap();
        assert!(!result.srafs.is_empty(), "isolated wire should receive SRAFs");
    }

    #[test]
    fn config_validation() {
        assert!(MbOpcConfig::standard().validate().is_ok());
        let mut bad = MbOpcConfig::fast();
        bad.gain = 0.0;
        assert!(bad.validate().is_err());
        bad = MbOpcConfig::fast();
        bad.segment_length_nm = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn mask_is_clamped_coverage() {
        let mut engine = MbOpcEngine::new(small_model(), MbOpcConfig::fast());
        let result = engine.optimize(&wire_clip()).unwrap();
        assert!(result.mask.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
