//! Sum-of-coherent-systems kernel stack.

use crate::jacobi::max_magnitude;
use crate::optics::OpticalConfig;
use crate::tcc;

/// One coherent-system kernel: spatial taps plus its TCC weight.
#[derive(Debug, Clone)]
pub struct SocsKernel {
    /// Eigenvalue weight `w_k` (after stack normalization).
    pub weight: f32,
    /// Row-major `ksize × ksize` real taps `h_k`: the kernel's one part
    /// that does not vanish (see [`SocsKernels::from_config`]).
    pub taps: Vec<f32>,
}

/// How large, against the part a kernel keeps, the part it drops may be:
/// beyond this the dropped part is not rounding residue.
const DROP_RATIO: f64 = 1e-6;

/// The full kernel stack `{(h_k, w_k)}` of paper Eq. (2).
///
/// Built from the TCC eigendecomposition ([`tcc::decompose`]): each
/// eigenvector — a set of coefficients over in-pupil frequency samples — is
/// synthesized into a spatial kernel by evaluating its inverse Fourier sum on
/// the kernel support, then Hann-windowed radially to suppress truncation
/// ripple. Weights are normalized so that a fully open mask images to unit
/// intensity, which makes resist thresholds dose-like quantities in `(0, 1)`.
///
/// ```
/// use ganopc_litho::{OpticalConfig, SocsKernels};
/// let mut cfg = OpticalConfig::default_32nm(16.0);
/// cfg.pupil_grid = 11; // fast
/// let stack = SocsKernels::from_config(&cfg);
/// assert!(stack.len() >= 4);
/// assert!((stack.open_field_intensity() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct SocsKernels {
    kernel_size: usize,
    pixel_nm: f64,
    kernels: Vec<SocsKernel>,
}

/// The normalized kernels of `cfg` as `(w_k, [real taps, imaginary taps])`.
fn complex_kernels(cfg: &OpticalConfig) -> Vec<(f32, [Vec<f32>; 2])> {
    let dec = tcc::decompose(cfg);
    let ksize = cfg.kernel_size;
    let half = (ksize / 2) as f64;
    let cutoff = cfg.cutoff_per_nm();
    let radius_nm = half * cfg.pixel_nm;

    let mut kernels: Vec<(f32, [Vec<f32>; 2])> = dec
        .eigenvalues
        .iter()
        .zip(&dec.eigenvectors)
        .map(|(&lambda, coeffs)| {
            let (mut re, mut im) = (vec![0.0f32; ksize * ksize], vec![0.0f32; ksize * ksize]);
            for ty in 0..ksize {
                for tx in 0..ksize {
                    let x_nm = (tx as f64 - half) * cfg.pixel_nm;
                    let y_nm = (ty as f64 - half) * cfg.pixel_nm;
                    // Radial Hann window against support truncation.
                    let r = (x_nm * x_nm + y_nm * y_nm).sqrt();
                    let win = if r >= radius_nm {
                        0.0
                    } else {
                        0.5 * (1.0 + (std::f64::consts::PI * r / radius_nm).cos())
                    };
                    if win == 0.0 {
                        continue;
                    }
                    let mut acc_re = 0.0f64;
                    let mut acc_im = 0.0f64;
                    for (s, &c) in dec.samples.iter().zip(coeffs) {
                        let phase =
                            2.0 * std::f64::consts::PI * cutoff * (s.ux * x_nm + s.uy * y_nm);
                        let (sin, cos) = phase.sin_cos();
                        // c · e^{iφ}
                        acc_re += c * cos;
                        acc_im += c * sin;
                    }
                    re[ty * ksize + tx] = (acc_re * win) as f32;
                    im[ty * ksize + tx] = (acc_im * win) as f32;
                }
            }
            (lambda as f32, [re, im])
        })
        .collect();

    // Normalize: a fully open mask (all ones) convolves to the DC gain
    // Σ taps of each kernel, so I_open = Σ_k w_k |Σ taps|².
    let open: f64 = kernels
        .iter()
        .map(|(weight, [re, im])| {
            let (dc_re, dc_im) = (re.iter().sum::<f32>(), im.iter().sum::<f32>());
            *weight as f64 * (dc_re * dc_re + dc_im * dc_im) as f64
        })
        .sum();
    assert!(open > 0.0, "degenerate kernel stack: zero open-field intensity");
    let scale = (1.0 / open) as f32;
    for (weight, _) in &mut kernels {
        *weight *= scale;
    }
    kernels
}

/// The one part of a kernel's complex taps that does not vanish.
///
/// # Panics
///
/// Panics unless the other part is at most [`DROP_RATIO`] of it.
fn real_taps([re, im]: [Vec<f32>; 2]) -> Vec<f32> {
    let peak = |taps: &[f32]| max_magnitude(taps.iter().map(|&t| t as f64));
    let (re_peak, im_peak) = (peak(&re), peak(&im));
    let (kept, kept_peak, dropped_peak) =
        if im_peak > re_peak { (im, im_peak, re_peak) } else { (re, re_peak, im_peak) };
    assert!(
        dropped_peak <= DROP_RATIO * kept_peak,
        "SOCS kernel is neither real nor imaginary: parts peak at {kept_peak:e} and \
         {dropped_peak:e}"
    );
    kept
}

impl SocsKernels {
    /// Derives the kernel stack for an optical configuration.
    ///
    /// At nominal focus the TCC is real symmetric and its sample grid is
    /// point-symmetric, so every eigenvector is even or odd and every kernel
    /// purely real or purely imaginary: the other part is f64→f32 rounding
    /// residue. Each kernel keeps the part that does not vanish as its real
    /// taps, split off after the open-field normalization. The imaginary
    /// unit of an odd kernel cancels in `|M ⊗ h_k|²` and in the Eq. (14)
    /// gradient, so the image and the gradient are those of the complex
    /// kernels.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`OpticalConfig::validate`], or if a kernel's
    /// smaller part exceeds `1e-6` of its larger one (a derivation bug).
    pub fn from_config(cfg: &OpticalConfig) -> Self {
        // PANIC: documented above — misconfiguration is a programming error
        // at construction, not a runtime condition to recover from.
        cfg.validate().expect("invalid optical configuration");
        let kernels = complex_kernels(cfg)
            .into_iter()
            .map(|(weight, parts)| SocsKernel { weight, taps: real_taps(parts) })
            .collect();
        SocsKernels { kernel_size: cfg.kernel_size, pixel_nm: cfg.pixel_nm, kernels }
    }

    /// Reassembles a stack from stored parts (the kernel cache).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent tap counts or an empty stack.
    pub fn from_parts(kernel_size: usize, pixel_nm: f64, kernels: Vec<SocsKernel>) -> Self {
        assert!(!kernels.is_empty(), "empty kernel stack");
        assert!(kernel_size % 2 == 1, "kernel size must be odd");
        for k in &kernels {
            assert_eq!(k.taps.len(), kernel_size * kernel_size, "tap count mismatch");
        }
        SocsKernels { kernel_size, pixel_nm, kernels }
    }

    /// Kernel support in pixels (odd).
    #[inline]
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Simulation pixel pitch, nm.
    #[inline]
    pub fn pixel_nm(&self) -> f64 {
        self.pixel_nm
    }

    /// Number of kernels retained.
    #[inline]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` when no kernels were retained (never for valid stacks).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The kernels, strongest first.
    #[inline]
    pub fn kernels(&self) -> &[SocsKernel] {
        &self.kernels
    }

    /// Intensity a fully open mask images to (≈ 1 after normalization).
    pub fn open_field_intensity(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| {
                let dc: f32 = k.taps.iter().sum();
                k.weight as f64 * (dc * dc) as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> OpticalConfig {
        let mut c = OpticalConfig::default_32nm(16.0);
        c.pupil_grid = 11;
        c
    }

    #[test]
    fn stack_has_descending_weights() {
        let stack = SocsKernels::from_config(&fast_cfg());
        let ws: Vec<f32> = stack.kernels().iter().map(|k| k.weight).collect();
        for pair in ws.windows(2) {
            assert!(pair[0] >= pair[1], "{ws:?}");
        }
        assert!(ws.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn open_field_normalized_to_unity() {
        let stack = SocsKernels::from_config(&fast_cfg());
        assert!((stack.open_field_intensity() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn leading_kernel_is_low_pass() {
        // The strongest kernel should peak at its center and decay outward.
        let stack = SocsKernels::from_config(&fast_cfg());
        let k = &stack.kernels()[0];
        let n = stack.kernel_size();
        let center = k.taps[(n / 2) * n + n / 2].abs();
        let corner = k.taps[0].abs();
        assert!(center > 10.0 * corner, "center {center} vs corner {corner}");
    }

    #[test]
    fn window_zeroes_kernel_rim() {
        let stack = SocsKernels::from_config(&fast_cfg());
        let n = stack.kernel_size();
        for k in stack.kernels() {
            // The four corners lie beyond the Hann radius → exactly zero.
            for idx in [0, n - 1, (n - 1) * n, n * n - 1] {
                assert_eq!(k.taps[idx], 0.0);
            }
        }
    }

    #[test]
    fn taps_are_finite() {
        let stack = SocsKernels::from_config(&fast_cfg());
        for k in stack.kernels() {
            assert!(k.taps.iter().all(|t| t.is_finite()));
        }
    }

    /// Every kernel is one real frame: over every pupil grid the repo
    /// builds (11 in the tests, 13 in the `tcc` refinement test, 15 by
    /// default), at 32 and 128 px with 24 kernels, the part each kernel
    /// drops is at most `DROP_RATIO` of the part it keeps.
    #[test]
    fn every_kernel_is_one_real_frame() {
        let peak = |taps: &[f32]| max_magnitude(taps.iter().map(|&t| t as f64));
        for grid in [11, 13, 15] {
            for size in [32usize, 128] {
                let mut cfg = OpticalConfig::default_32nm(2048.0 / size as f64);
                cfg.pupil_grid = grid;
                cfg.num_kernels = 24;
                let kernels = complex_kernels(&cfg);
                assert_eq!(kernels.len(), 24, "grid {grid}, {size} px");
                let mut worst = 0.0f64;
                for (k, (_, [re, im])) in kernels.iter().enumerate() {
                    let (re, im) = (peak(re), peak(im));
                    let ratio = re.min(im) / re.max(im);
                    assert!(ratio <= DROP_RATIO, "grid {grid}, {size} px, kernel {k}: {ratio:e}");
                    worst = worst.max(ratio);
                }
                println!("grid {grid}, {size} px: dropped/kept peak at most {worst:.1e}");
            }
        }
    }

    /// An odd kernel keeps its imaginary part, and the residue in its
    /// real part goes.
    #[test]
    fn an_odd_kernel_keeps_its_imaginary_part() {
        let kept = real_taps([vec![1e-9, 0.0, -1e-9], vec![0.5, 0.0, -0.5]]);
        assert_eq!(kept, [0.5, 0.0, -0.5]);
    }

    /// Negative control: a kernel whose parts are both significant is a
    /// derivation bug, and fails derivation rather than losing a part.
    #[test]
    #[should_panic(expected = "neither real nor imaginary")]
    fn a_kernel_with_two_significant_parts_fails() {
        real_taps([vec![0.25, 1.0, 0.25], vec![0.0, 1e-3, 0.0]]);
    }
}
