//! Transmission-cross-coefficient (TCC) assembly and decomposition.
//!
//! Hopkins' formulation of partially coherent imaging [19 in the paper]
//! expresses the aerial image through the 4-D TCC operator
//!
//! ```text
//! TCC(f₁, f₂) = ∫ J(s) · P(s + f₁) · P*(s + f₂) ds
//! ```
//!
//! where `J` is the source intensity distribution and `P` the pupil
//! function. Sampling mask frequencies `f` on a grid restricted to the pupil
//! disk turns `TCC` into a PSD matrix whose leading eigenpairs give the SOCS
//! kernels of Eq. (2) — the same construction Cobb's thesis [20 in the
//! paper] uses to derive production OPC kernels. At nominal focus the pupil
//! is real, so the TCC is real symmetric and a plain Jacobi sweep
//! decomposes it.

use crate::jacobi::{eigendecompose, SymMatrix};
use crate::optics::OpticalConfig;

/// A frequency sample inside the pupil disk, in normalized pupil coordinates
/// (cutoff = 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqSample {
    /// Normalized x-frequency.
    pub ux: f64,
    /// Normalized y-frequency.
    pub uy: f64,
}

/// The decomposed TCC: frequency samples plus eigenpairs over them.
#[derive(Debug, Clone)]
pub struct TccDecomposition {
    /// Frequency samples the operator was built on.
    pub samples: Vec<FreqSample>,
    /// Eigenvalues, descending (all ≥ 0 up to rounding).
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors; `eigenvectors[k][j]` is the coefficient of sample `j`
    /// in kernel `k`.
    pub eigenvectors: Vec<Vec<f64>>,
}

/// Pupil at a normalized frequency: the circular aperture, 1 inside the
/// unit disk and 0 outside.
#[inline]
fn pupil(ux: f64, uy: f64) -> f64 {
    if ux * ux + uy * uy > 1.0 {
        0.0
    } else {
        1.0
    }
}

/// Enumerates the normalized frequency grid samples inside the pupil disk.
///
/// The grid has `cfg.pupil_grid` samples per axis spanning `[-1, 1]`.
pub fn pupil_samples(cfg: &OpticalConfig) -> Vec<FreqSample> {
    let n = cfg.pupil_grid;
    let half = (n / 2) as f64;
    let mut samples = Vec::new();
    for iy in 0..n {
        for ix in 0..n {
            let ux = (ix as f64 - half) / half;
            let uy = (iy as f64 - half) / half;
            if ux * ux + uy * uy <= 1.0 + 1e-12 {
                samples.push(FreqSample { ux, uy });
            }
        }
    }
    samples
}

/// Annular source sample points with weights, normalized to unit total.
fn source_samples(cfg: &OpticalConfig) -> Vec<(f64, f64, f64)> {
    // Sample the annulus on a grid fine enough to resolve its ring width.
    let n = (2 * cfg.pupil_grid + 1).max(21);
    let half = (n / 2) as f64;
    let mut pts = Vec::new();
    let (s0, s1) = (cfg.sigma_inner, cfg.sigma_outer);
    for iy in 0..n {
        for ix in 0..n {
            let sx = (ix as f64 - half) / half; // spans [-1, 1]
            let sy = (iy as f64 - half) / half;
            let r = (sx * sx + sy * sy).sqrt();
            if r >= s0 - 1e-12 && r <= s1 + 1e-12 {
                pts.push((sx, sy, 1.0));
            }
        }
    }
    assert!(!pts.is_empty(), "annulus too thin for the source grid");
    let total: f64 = pts.iter().map(|p| p.2).sum();
    for p in &mut pts {
        p.2 /= total;
    }
    pts
}

/// Assembles the real symmetric TCC over the in-pupil frequency samples.
pub fn build_tcc(cfg: &OpticalConfig) -> (Vec<FreqSample>, SymMatrix) {
    let samples = pupil_samples(cfg);
    let source = source_samples(cfg);
    let mut tcc = SymMatrix::zeros(samples.len());
    for (i, fi) in samples.iter().enumerate() {
        for (j, fj) in samples.iter().enumerate().skip(i) {
            let mut acc = 0.0;
            for &(sx, sy, wgt) in &source {
                // J · P(s+f1) · P(s+f2)
                acc += wgt * (pupil(sx + fi.ux, sy + fi.uy) * pupil(sx + fj.ux, sy + fj.uy));
            }
            tcc.set_sym(i, j, acc);
        }
    }
    (samples, tcc)
}

/// Builds and eigendecomposes the TCC for an optical configuration.
///
/// Returns at most `cfg.num_kernels` leading eigenpairs; eigenvalues below
/// `1e-9` of the largest are dropped (they contribute nothing to the image).
///
/// ```
/// use ganopc_litho::{optics::OpticalConfig, tcc::decompose};
/// let cfg = OpticalConfig::default_32nm(16.0);
/// let dec = decompose(&cfg);
/// assert!(!dec.eigenvalues.is_empty());
/// assert!(dec.eigenvalues.windows(2).all(|w| w[0] >= w[1]));
/// ```
pub fn decompose(cfg: &OpticalConfig) -> TccDecomposition {
    let (samples, tcc) = build_tcc(cfg);
    let pairs = eigendecompose(&tcc, 1e-12, 40);
    let lead = pairs.first().map_or(0.0, |p| p.value).max(f64::MIN_POSITIVE);
    let mut eigenvalues = Vec::new();
    let mut eigenvectors = Vec::new();
    for p in pairs {
        if eigenvalues.len() == cfg.num_kernels || p.value <= 1e-9 * lead {
            break;
        }
        eigenvalues.push(p.value);
        eigenvectors.push(p.vector);
    }
    TccDecomposition { samples, eigenvalues, eigenvectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OpticalConfig {
        let mut c = OpticalConfig::default_32nm(16.0);
        c.pupil_grid = 11; // keep tests fast
        c
    }

    #[test]
    fn pupil_samples_inside_disk() {
        let s = pupil_samples(&cfg());
        assert!(!s.is_empty());
        for f in &s {
            assert!(f.ux * f.ux + f.uy * f.uy <= 1.0 + 1e-9);
        }
        // Disk fill factor of the bounding square ≈ π/4.
        let total = 11 * 11;
        let ratio = s.len() as f64 / total as f64;
        assert!(ratio > 0.6 && ratio < 0.95, "fill ratio {ratio}");
    }

    #[test]
    fn tcc_is_psd_and_normalized() {
        let (_samples, m) = build_tcc(&cfg());
        // Diagonal entries are source integrals over shifted pupils → in [0,1].
        for i in 0..m.dim() {
            let d = m.get(i, i);
            assert!((0.0..=1.0 + 1e-9).contains(&d), "diag {d}");
        }
        // DC sample (0,0) sees the whole annulus inside the pupil → ≈ 1.
        let samples = pupil_samples(&cfg());
        let dc = samples
            .iter()
            .position(|f| f.ux.abs() < 1e-12 && f.uy.abs() < 1e-12)
            .expect("dc sample present");
        assert!((m.get(dc, dc) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decomposition_energy_concentrates_in_leading_kernels() {
        let dec = decompose(&cfg());
        assert!(dec.eigenvalues.len() >= 4, "got {}", dec.eigenvalues.len());
        let total: f64 = dec.eigenvalues.iter().sum();
        let top4: f64 = dec.eigenvalues.iter().take(4).sum();
        assert!(top4 / total > 0.3, "leading kernels too weak: {top4}/{total}");
        for v in &dec.eigenvalues {
            assert!(*v >= 0.0, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn eigenvectors_match_sample_count() {
        let dec = decompose(&cfg());
        for v in &dec.eigenvectors {
            assert_eq!(v.len(), dec.samples.len());
        }
        assert_eq!(dec.eigenvalues.len(), dec.eigenvectors.len());
    }

    #[test]
    fn decompose_is_deterministic() {
        let a = decompose(&cfg());
        let b = decompose(&cfg());
        assert_eq!(a.eigenvalues, b.eigenvalues);
        assert_eq!(a.eigenvectors, b.eigenvectors);
    }

    #[test]
    fn larger_source_grid_changes_little() {
        // Sanity: spectral energy (trace) is stable under source refinement.
        let base = cfg();
        let dec1 = decompose(&base);
        let mut finer = base.clone();
        finer.pupil_grid = 13;
        let dec2 = decompose(&finer);
        let sum1: f64 = dec1.eigenvalues.iter().sum();
        let sum2: f64 = dec2.eigenvalues.iter().sum();
        // Trace scales with the number of in-disk samples; compare per-sample.
        let t1 = sum1 / dec1.samples.len() as f64;
        let t2 = sum2 / dec2.samples.len() as f64;
        assert!((t1 - t2).abs() / t1 < 0.25, "t1={t1} t2={t2}");
    }
}
