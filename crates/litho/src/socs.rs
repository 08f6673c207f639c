//! Sum-of-coherent-systems kernel stack.

use crate::optics::OpticalConfig;
use crate::tcc;
use ganopc_fft::Complex;

/// One coherent-system kernel: spatial taps plus its TCC weight.
#[derive(Debug, Clone)]
pub struct SocsKernel {
    /// Eigenvalue weight `w_k` (after stack normalization).
    pub weight: f32,
    /// Row-major `ksize × ksize` complex taps `h_k`.
    pub taps: Vec<Complex>,
}

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

impl SocsKernels {
    /// Derives the kernel stack for an optical configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`OpticalConfig::validate`].
    pub fn from_config(cfg: &OpticalConfig) -> Self {
        // PANIC: documented above — misconfiguration is a programming error
        // at construction, not a runtime condition to recover from.
        cfg.validate().expect("invalid optical configuration");
        let dec = tcc::decompose(cfg);
        let ksize = cfg.kernel_size;
        let half = (ksize / 2) as f64;
        let cutoff = cfg.cutoff_per_nm();
        let radius_nm = half * cfg.pixel_nm;

        let mut kernels: Vec<SocsKernel> = dec
            .eigenvalues
            .iter()
            .zip(&dec.eigenvectors)
            .map(|(&lambda, coeffs)| {
                let mut taps = vec![Complex::ZERO; ksize * ksize];
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
                        for (s, &(cr, ci)) in dec.samples.iter().zip(coeffs) {
                            let phase =
                                2.0 * std::f64::consts::PI * cutoff * (s.ux * x_nm + s.uy * y_nm);
                            let (sin, cos) = phase.sin_cos();
                            // (cr + i·ci) · e^{iφ}
                            acc_re += cr * cos - ci * sin;
                            acc_im += cr * sin + ci * cos;
                        }
                        taps[ty * ksize + tx] =
                            Complex::new((acc_re * win) as f32, (acc_im * win) as f32);
                    }
                }
                SocsKernel { weight: lambda as f32, taps }
            })
            .collect();

        // Normalize: a fully open mask (all ones) convolves to the DC gain
        // Σ taps of each kernel, so I_open = Σ_k w_k |Σ taps|².
        let open: f64 = kernels
            .iter()
            .map(|k| {
                let dc: Complex = k.taps.iter().copied().sum();
                k.weight as f64 * dc.norm_sqr() as f64
            })
            .sum();
        assert!(open > 0.0, "degenerate kernel stack: zero open-field intensity");
        let scale = (1.0 / open) as f32;
        for k in &mut kernels {
            k.weight *= scale;
        }

        SocsKernels { kernel_size: ksize, pixel_nm: cfg.pixel_nm, kernels }
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
                let dc: Complex = k.taps.iter().copied().sum();
                k.weight as f64 * dc.norm_sqr() as f64
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
                assert_eq!(k.taps[idx], Complex::ZERO);
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
}
