//! Optical system description.

/// Parameters of the partially coherent projection system and of the
/// simulation grid.
///
/// Defaults model a 193 nm immersion scanner with annular illumination —
/// the technology the ICCAD-2013 contest kit (32 nm M1) represents. The
/// system images at nominal focus, as the paper's does: its process window
/// varies the dose only.
///
/// ```
/// use ganopc_litho::OpticalConfig;
/// let cfg = OpticalConfig::default_32nm(16.0);
/// assert_eq!(cfg.wavelength_nm, 193.0);
/// assert!(cfg.kernel_size % 2 == 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OpticalConfig {
    /// Exposure wavelength, nm (ArF: 193).
    pub wavelength_nm: f64,
    /// Numerical aperture of the projection lens (immersion: up to 1.35).
    pub numerical_aperture: f64,
    /// Inner radius of the annular source, as a fraction of the pupil.
    pub sigma_inner: f64,
    /// Outer radius of the annular source, as a fraction of the pupil.
    pub sigma_outer: f64,
    /// Simulation pixel pitch, nm/pixel.
    pub pixel_nm: f64,
    /// Spatial support of each SOCS kernel, pixels (odd).
    pub kernel_size: usize,
    /// Number of SOCS kernels kept from the TCC decomposition
    /// (paper: `N_h = 24`).
    pub num_kernels: usize,
    /// Pupil-frequency samples per axis for TCC assembly (odd).
    pub pupil_grid: usize,
}

impl OpticalConfig {
    /// 193 nm immersion, NA 1.35, annulus σ = 0.6/0.9, 24 kernels — scaled
    /// to a given simulation pixel pitch.
    ///
    /// The kernel support is sized to ≈ ±2.5·λ/NA around the center (the
    /// useful extent of the point-spread function), clamped to at least
    /// 9 pixels, and forced odd.
    pub fn default_32nm(pixel_nm: f64) -> Self {
        assert!(pixel_nm > 0.0, "pixel pitch must be positive");
        let wavelength_nm = 193.0;
        let numerical_aperture = 1.35;
        let psf_extent_nm = 2.5 * wavelength_nm / numerical_aperture;
        let half = (psf_extent_nm / pixel_nm).ceil() as usize;
        let kernel_size = (2 * half + 1).max(9);
        OpticalConfig {
            wavelength_nm,
            numerical_aperture,
            sigma_inner: 0.6,
            sigma_outer: 0.9,
            pixel_nm,
            kernel_size,
            num_kernels: 24,
            pupil_grid: 15,
        }
    }

    /// Pupil cutoff frequency NA/λ, cycles per nm.
    #[inline]
    pub fn cutoff_per_nm(&self) -> f64 {
        self.numerical_aperture / self.wavelength_nm
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.wavelength_nm <= 0.0 {
            return Err("wavelength must be positive".into());
        }
        if self.numerical_aperture <= 0.0 {
            return Err("numerical aperture must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.sigma_inner)
            || self.sigma_outer <= self.sigma_inner
            || self.sigma_outer > 1.0
        {
            return Err(format!(
                "annulus [{}, {}] must satisfy 0 <= inner < outer <= 1",
                self.sigma_inner, self.sigma_outer
            ));
        }
        if self.pixel_nm <= 0.0 {
            return Err("pixel pitch must be positive".into());
        }
        if self.kernel_size.is_multiple_of(2) || self.kernel_size < 3 {
            return Err(format!("kernel size {} must be odd and >= 3", self.kernel_size));
        }
        if self.num_kernels == 0 {
            return Err("at least one SOCS kernel required".into());
        }
        if self.pupil_grid.is_multiple_of(2) || self.pupil_grid < 5 {
            return Err(format!("pupil grid {} must be odd and >= 5", self.pupil_grid));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        for px in [1.0, 4.0, 8.0, 16.0, 32.0] {
            let cfg = OpticalConfig::default_32nm(px);
            assert!(cfg.validate().is_ok(), "pixel {px}: {:?}", cfg.validate());
        }
    }

    #[test]
    fn kernel_support_scales_with_pixel_pitch() {
        let fine = OpticalConfig::default_32nm(4.0);
        let coarse = OpticalConfig::default_32nm(16.0);
        assert!(fine.kernel_size > coarse.kernel_size);
        assert_eq!(fine.kernel_size % 2, 1);
        assert_eq!(coarse.kernel_size % 2, 1);
    }

    #[test]
    fn cutoff_frequency() {
        let cfg = OpticalConfig::default_32nm(8.0);
        assert!((cfg.cutoff_per_nm() - 1.35 / 193.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_annulus() {
        let mut cfg = OpticalConfig::default_32nm(8.0);
        cfg.sigma_inner = 0.9;
        cfg.sigma_outer = 0.6;
        assert!(cfg.validate().is_err());
        cfg.sigma_inner = 0.2;
        cfg.sigma_outer = 1.2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_even_kernel() {
        let mut cfg = OpticalConfig::default_32nm(8.0);
        cfg.kernel_size = 10;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "pixel pitch must be positive")]
    fn rejects_nonpositive_pixel() {
        let _ = OpticalConfig::default_32nm(0.0);
    }
}
