//! Printability metrics: squared L2, PVB, and the EPE / bridge / neck
//! defect detectors of paper Fig. 2.

use crate::{Field, LithoModel};

/// Squared L2 error between wafer and target (paper Definition 1), scaled to
/// nm² — with binary images this equals the XOR area of the two patterns.
///
/// # Panics
///
/// Panics on shape mismatch.
///
/// ```
/// use ganopc_litho::{metrics::squared_l2_nm2, Field};
/// let a = Field::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
/// let b = Field::from_vec(1, 4, vec![1.0, 1.0, 0.0, 0.0]);
/// assert_eq!(squared_l2_nm2(&a, &b, 2.0), 8.0); // 2 px × 4 nm²/px
/// ```
pub fn squared_l2_nm2(wafer: &Field, target: &Field, pixel_nm: f64) -> f64 {
    wafer.squared_l2_distance(target) * pixel_nm * pixel_nm
}

/// Process-variability band area in nm²: pixels printed at the outer dose
/// but not at the inner dose (contour area variation under ±δ dose, the
/// "PVB" column of Table 2).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn pvb_nm2(inner: &Field, outer: &Field, pixel_nm: f64) -> f64 {
    assert_eq!(inner.shape(), outer.shape(), "pvb shape mismatch");
    let px: f64 =
        inner.as_slice().iter().zip(outer.as_slice()).map(|(&i, &o)| (o - i).abs() as f64).sum();
    px * pixel_nm * pixel_nm
}

/// 4-connected component labelling of a thresholded field.
///
/// Returns `(labels, count)`: `labels[i] == 0` for background, else the
/// 1-based component id.
pub fn connected_components(field: &Field, threshold: f32) -> (Vec<u32>, usize) {
    let (h, w) = field.shape();
    let mut labels = vec![0u32; h * w];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..h * w {
        if field.as_slice()[start] < threshold || labels[start] != 0 {
            continue;
        }
        next += 1;
        labels[start] = next;
        stack.push(start);
        while let Some(i) = stack.pop() {
            let (y, x) = (i / w, i % w);
            let mut visit = |j: usize| {
                if field.as_slice()[j] >= threshold && labels[j] == 0 {
                    labels[j] = next;
                    stack.push(j);
                }
            };
            if x > 0 {
                visit(i - 1);
            }
            if x + 1 < w {
                visit(i + 1);
            }
            if y > 0 {
                visit(i - w);
            }
            if y + 1 < h {
                visit(i + w);
            }
        }
    }
    (labels, next as usize)
}

/// Configuration of the defect detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectConfig {
    /// EPE tolerance, nm (ICCAD-2013 uses 15 nm).
    pub epe_tolerance_nm: f64,
    /// Spacing between EPE measurement points along target edges, nm.
    pub epe_sample_step_nm: f64,
    /// Necks narrower than this fraction of the drawn CD are violations.
    pub neck_fraction: f64,
}

impl Default for DefectConfig {
    fn default() -> Self {
        DefectConfig { epe_tolerance_nm: 15.0, epe_sample_step_nm: 40.0, neck_fraction: 0.6 }
    }
}

/// Walks every EPE measurement point, calling `visit(d_px)` once per
/// point — the sampling pass behind [`epe_violations`].
///
/// Measurement points sit on every vertical and horizontal transition of
/// the binary `target`, sampled at `cfg.epe_sample_step_nm` spacing along
/// the edge; the wafer contour is located along the edge normal within the
/// violation search range. `d_px` is the *signed* contour displacement in
/// pixels toward increasing coordinate (`None` when no matching wafer
/// transition exists in range — the feature failed to print or merged).
fn for_each_epe_sample(
    wafer: &Field,
    target: &Field,
    pixel_nm: f64,
    cfg: &DefectConfig,
    mut visit: impl FnMut(Option<f64>),
) {
    assert_eq!(wafer.shape(), target.shape(), "epe shape mismatch");
    let (h, w) = target.shape();
    let step = (cfg.epe_sample_step_nm / pixel_nm).round().max(1.0) as usize;
    let tol_px = cfg.epe_tolerance_nm / pixel_nm;
    let search = (tol_px.ceil() as isize + 2).max(3);
    let on = |f: &Field, y: isize, x: isize| -> bool {
        y >= 0
            && x >= 0
            && (y as usize) < h
            && (x as usize) < w
            && f.get(y as usize, x as usize) >= 0.5
    };

    // Vertical edges: target transition between columns x and x+1.
    for y in (0..h).step_by(step) {
        for x in 0..w.saturating_sub(1) {
            let a = target.get(y, x) >= 0.5;
            let b = target.get(y, x + 1) >= 0.5;
            if a == b {
                continue;
            }
            // The drawn edge sits between x and x+1; find the wafer
            // transition along this row near it, closest first.
            let mut found = None;
            for d in 0..=search {
                for xs in [x as isize - d, x as isize + d] {
                    if xs < 0 || (xs + 1) as usize >= w {
                        continue;
                    }
                    let wa = on(wafer, y as isize, xs);
                    let wb = on(wafer, y as isize, xs + 1);
                    if wa != wb && wa == a {
                        found = Some((xs - x as isize) as f64);
                        break;
                    }
                }
                if found.is_some() {
                    break;
                }
            }
            visit(found);
        }
    }
    // Horizontal edges: transition between rows y and y+1.
    for x in (0..w).step_by(step) {
        for y in 0..h.saturating_sub(1) {
            let a = target.get(y, x) >= 0.5;
            let b = target.get(y + 1, x) >= 0.5;
            if a == b {
                continue;
            }
            let mut found = None;
            for d in 0..=search {
                for ys in [y as isize - d, y as isize + d] {
                    if ys < 0 || (ys + 1) as usize >= h {
                        continue;
                    }
                    let wa = on(wafer, ys, x as isize);
                    let wb = on(wafer, ys + 1, x as isize);
                    if wa != wb && wa == a {
                        found = Some((ys - y as isize) as f64);
                        break;
                    }
                }
                if found.is_some() {
                    break;
                }
            }
            visit(found);
        }
    }
}

/// Edge-placement-error check (paper Fig. 2, left).
///
/// Measurement points are sampled along the horizontal and vertical edges of
/// the binary `target`; at each point the wafer contour is located along the
/// edge normal and the displacement compared against the tolerance. Points
/// where no contour is found within the search range count as violations
/// (the feature failed to print or merged). The tolerance comparison
/// happens in nanometers on `|d_px| * pixel_nm`.
///
/// Returns `(violations, measurements)`.
pub fn epe_violations(
    wafer: &Field,
    target: &Field,
    pixel_nm: f64,
    cfg: &DefectConfig,
) -> (usize, usize) {
    let mut violations = 0usize;
    let mut measurements = 0usize;
    for_each_epe_sample(wafer, target, pixel_nm, cfg, |d_px| {
        measurements += 1;
        match d_px {
            Some(d) if d.abs() * pixel_nm <= cfg.epe_tolerance_nm => {}
            _ => violations += 1,
        }
    });
    (violations, measurements)
}

/// Bridge detection (paper Fig. 2, right): a wafer component that connects
/// two or more distinct target components is an unintended short.
///
/// Returns the number of bridging wafer components.
pub fn bridge_count(wafer: &Field, target: &Field) -> usize {
    assert_eq!(wafer.shape(), target.shape(), "bridge shape mismatch");
    let (wl, wn) = connected_components(wafer, 0.5);
    let (tl, _tn) = connected_components(target, 0.5);
    let mut seen: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); wn + 1];
    for (i, &wlab) in wl.iter().enumerate() {
        if wlab != 0 && tl[i] != 0 {
            seen[wlab as usize].insert(tl[i]);
        }
    }
    seen.iter().filter(|s| s.len() >= 2).count()
}

/// Break detection: target components whose wafer coverage is missing or
/// split into several pieces (a neck pinched through, paper Fig. 2 middle).
///
/// Returns the number of broken target components.
pub fn break_count(wafer: &Field, target: &Field) -> usize {
    assert_eq!(wafer.shape(), target.shape(), "break shape mismatch");
    let (wl, _wn) = connected_components(wafer, 0.5);
    let (tl, tn) = connected_components(target, 0.5);
    let mut cover: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); tn + 1];
    for (i, &tlab) in tl.iter().enumerate() {
        if tlab != 0 && wl[i] != 0 {
            cover[tlab as usize].insert(wl[i]);
        }
    }
    cover[1..].iter().filter(|s| s.len() != 1).count()
}

/// Neck detection: wafer runs crossing target geometry that are narrower
/// than `neck_fraction · drawn run`. Scans both orientations; a run is only
/// measured where the target itself is on (so line-end taper does not
/// dominate).
///
/// Returns the number of violating runs.
pub fn neck_count(wafer: &Field, target: &Field, cfg: &DefectConfig) -> usize {
    assert_eq!(wafer.shape(), target.shape(), "neck shape mismatch");
    let (h, w) = wafer.shape();
    let mut count = 0usize;
    // Horizontal runs.
    for y in 0..h {
        let mut x = 0usize;
        while x < w {
            if target.get(y, x) >= 0.5 {
                let start = x;
                while x < w && target.get(y, x) >= 0.5 {
                    x += 1;
                }
                let t_run = x - start;
                // Measure wafer coverage inside this target run.
                let w_run = (start..x).filter(|&xx| wafer.get(y, xx) >= 0.5).count();
                if w_run > 0 && (w_run as f64) < cfg.neck_fraction * t_run as f64 {
                    count += 1;
                }
            } else {
                x += 1;
            }
        }
    }
    // Vertical runs.
    for x in 0..w {
        let mut y = 0usize;
        while y < h {
            if target.get(y, x) >= 0.5 {
                let start = y;
                while y < h && target.get(y, x) >= 0.5 {
                    y += 1;
                }
                let t_run = y - start;
                let w_run = (start..y).filter(|&yy| wafer.get(yy, x) >= 0.5).count();
                if w_run > 0 && (w_run as f64) < cfg.neck_fraction * t_run as f64 {
                    count += 1;
                }
            } else {
                y += 1;
            }
        }
    }
    count
}

/// The full printability report for one mask (columns of Table 2 plus the
/// Fig. 2 defect inventory).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskMetrics {
    /// Squared L2 error at nominal dose, nm².
    pub l2_nm2: f64,
    /// Process-variability band area under ±δ dose, nm².
    pub pvb_nm2: f64,
    /// EPE violations over the sampled measurement points.
    pub epe_violations: usize,
    /// EPE measurement points taken.
    pub epe_measurements: usize,
    /// Bridging wafer components.
    pub bridges: usize,
    /// Broken / missing target components.
    pub breaks: usize,
    /// Neck (thin-CD) violations.
    pub necks: usize,
}

impl MaskMetrics {
    /// Evaluates a mask against a target with a lithography model.
    ///
    /// Runs the full ±δ-dose process window once and derives every metric
    /// from it through [`MaskMetrics::from_prints`].
    pub fn evaluate(
        model: &LithoModel,
        mask: &Field,
        target: &Field,
        cfg: &DefectConfig,
    ) -> MaskMetrics {
        let [inner, nominal, outer] = model.process_window(mask);
        MaskMetrics::from_prints([&inner, &nominal, &outer], target, model.pixel_nm(), cfg)
    }

    /// Derives every metric from a mask's three dose prints, ordered as
    /// [`LithoModel::process_window`] returns them: `1 − δ`, nominal,
    /// `1 + δ`. For callers that already hold the prints, such as an ILT
    /// result, so the mask is not imaged again.
    pub fn from_prints(
        [inner, nominal, outer]: [&Field; 3],
        target: &Field,
        pixel_nm: f64,
        cfg: &DefectConfig,
    ) -> MaskMetrics {
        let (epe_violations, epe_measurements) = epe_violations(nominal, target, pixel_nm, cfg);
        MaskMetrics {
            l2_nm2: squared_l2_nm2(nominal, target, pixel_nm),
            pvb_nm2: pvb_nm2(inner, outer, pixel_nm),
            epe_violations,
            epe_measurements,
            bridges: bridge_count(nominal, target),
            breaks: break_count(nominal, target),
            necks: neck_count(nominal, target, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_from(rows: &[&str]) -> Field {
        let h = rows.len();
        let w = rows[0].len();
        let mut f = Field::zeros(h, w);
        for (y, row) in rows.iter().enumerate() {
            for (x, ch) in row.chars().enumerate() {
                if ch == '#' {
                    f.set(y, x, 1.0);
                }
            }
        }
        f
    }

    #[test]
    fn l2_is_xor_area() {
        let a = field_from(&["##..", "##.."]);
        let b = field_from(&[".#..", "##.#"]);
        assert_eq!(squared_l2_nm2(&a, &b, 1.0), 2.0);
        assert_eq!(squared_l2_nm2(&a, &b, 4.0), 32.0);
        assert_eq!(squared_l2_nm2(&a, &a, 4.0), 0.0);
    }

    #[test]
    fn pvb_counts_band_pixels() {
        let inner = field_from(&[".....", ".###.", "....."]);
        let outer = field_from(&["#####", "#####", "#####"]);
        assert_eq!(pvb_nm2(&inner, &outer, 1.0), 12.0);
        assert_eq!(pvb_nm2(&inner, &inner, 1.0), 0.0);
    }

    #[test]
    fn components_count_and_label() {
        let f = field_from(&["##..#", "....#", "#...."]);
        let (labels, n) = connected_components(&f, 0.5);
        assert_eq!(n, 3);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(labels[4], labels[9]); // vertical adjacency
        assert_eq!(labels[2], 0); // background
    }

    #[test]
    fn components_empty_field() {
        let f = Field::zeros(4, 4);
        let (_l, n) = connected_components(&f, 0.5);
        assert_eq!(n, 0);
    }

    #[test]
    fn bridge_detected_between_two_wires() {
        let target = field_from(&["##...##", "##...##", "##...##"]);
        let bridged = field_from(&["##...##", "#######", "##...##"]);
        assert_eq!(bridge_count(&bridged, &target), 1);
        assert_eq!(bridge_count(&target, &target), 0);
    }

    #[test]
    fn break_detected_on_split_wire() {
        let target = field_from(&["#######"]);
        let broken = field_from(&["###.###"]);
        assert_eq!(break_count(&broken, &target), 1);
        assert_eq!(break_count(&target, &target), 0);
        // Fully missing component also counts.
        let gone = Field::zeros(1, 7);
        assert_eq!(break_count(&gone, &target), 1);
    }

    #[test]
    fn neck_detected_on_thin_print() {
        // Target wire 5 wide; wafer narrows to 2 in the middle row.
        let target = field_from(&["#####", "#####", "#####"]);
        let necked = field_from(&["#####", ".##..", "#####"]);
        let cfg = DefectConfig::default();
        assert!(neck_count(&necked, &target, &cfg) >= 1);
        assert_eq!(neck_count(&target, &target, &cfg), 0);
    }

    #[test]
    fn epe_zero_for_perfect_print() {
        let target = field_from(&["........", "..####..", "..####..", "..####..", "........"]);
        let cfg =
            DefectConfig { epe_tolerance_nm: 1.0, epe_sample_step_nm: 1.0, ..Default::default() };
        let (v, m) = epe_violations(&target, &target, 1.0, &cfg);
        assert_eq!(v, 0);
        assert!(m > 0);
    }

    #[test]
    fn epe_flags_shifted_edge() {
        let target = field_from(&["........", "..####..", "..####..", "..####..", "........"]);
        // Wafer shifted right by 2 px, tolerance 1 px.
        let wafer = field_from(&["........", "....####", "....####", "....####", "........"]);
        let cfg =
            DefectConfig { epe_tolerance_nm: 1.0, epe_sample_step_nm: 1.0, ..Default::default() };
        let (v, _m) = epe_violations(&wafer, &target, 1.0, &cfg);
        assert!(v > 0, "shifted edges must violate");
    }

    #[test]
    fn epe_missing_pattern_counts_violations() {
        let target = field_from(&["........", "..####..", "..####..", "........"]);
        let wafer = Field::zeros(4, 8);
        let cfg =
            DefectConfig { epe_tolerance_nm: 1.0, epe_sample_step_nm: 1.0, ..Default::default() };
        let (v, m) = epe_violations(&wafer, &target, 1.0, &cfg);
        assert_eq!(v, m, "every measurement should fail");
        assert!(m > 0);
    }

    #[test]
    fn default_defect_config_matches_contest() {
        let cfg = DefectConfig::default();
        assert_eq!(cfg.epe_tolerance_nm, 15.0);
        assert!(cfg.neck_fraction > 0.0 && cfg.neck_fraction < 1.0);
    }
}
