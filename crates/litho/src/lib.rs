//! Hopkins/SOCS partially-coherent lithography simulation and printability
//! metrics — the reproduction's substitute for the ICCAD-2013 `lithosim_v4`
//! kit the GAN-OPC paper evaluates with.
//!
//! # Physics
//!
//! The paper (Section 2) models the aerial image with the sum-of-coherent-
//! systems (SOCS) decomposition of the Hopkins partially coherent imaging
//! equation:
//!
//! ```text
//! I = Σ_{k=1}^{N_h} w_k · |M ⊗ h_k|²          (paper Eq. (2), N_h = 24)
//! Z(x,y) = 1 if I(x,y) ≥ I_th else 0          (paper Eq. (3))
//! ```
//!
//! The contest kit ships its 24 kernels as opaque binary data; we instead
//! *derive* kernels with the same structure from first principles:
//! [`tcc`] builds the transmission-cross-coefficient operator of an
//! annular-source / circular-pupil 193 nm immersion system on a sampled
//! pupil-frequency grid, [`jacobi`] eigendecomposes it, and [`socs`] converts
//! the leading eigenpairs into spatial kernels `h_k` with weights `w_k`.
//! See DESIGN.md §3 for why this substitution preserves the paper's
//! behaviour.
//!
//! # Modules
//!
//! * [`optics`] — [`OpticalConfig`]: wavelength, NA, source shape, grid;
//! * [`jacobi`] — dense symmetric eigendecomposition (f64);
//! * [`tcc`] — TCC assembly and decomposition;
//! * [`socs`] — [`SocsKernels`]: the kernel stack `{(h_k, w_k)}`;
//! * [`model`] — [`LithoModel`]: aerial image, resist, dose sweeps, the
//!   relaxed (sigmoid) forward model of Eq. (12)–(13) and the ILT gradient
//!   of Eq. (14);
//! * [`metrics`] — squared L2, PVB under dose variation, EPE / bridge /
//!   neck detectors (paper Fig. 2 taxonomy).
//!
//! # Example
//!
//! ```
//! use ganopc_litho::{Field, LithoModel};
//!
//! # fn main() -> Result<(), ganopc_litho::LithoError> {
//! let model = LithoModel::iccad2013_like(128)?;
//! // Print a 5-pixel-wide line and check it survives lithography.
//! let mut mask = Field::zeros(128, 128);
//! for y in 32..96 {
//!     for x in 62..67 {
//!         mask.set(y, x, 1.0);
//!     }
//! }
//! let wafer = model.print_nominal(&mask);
//! assert!(wafer.sum() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod jacobi;
pub mod metrics;
pub mod model;
pub mod optics;
pub mod socs;
pub mod tcc;

pub use metrics::MaskMetrics;
pub use model::LithoModel;
pub use optics::OpticalConfig;
pub use socs::SocsKernels;

/// The image type used for masks, targets, aerial and wafer images —
/// a re-export of [`ganopc_geometry::raster::Raster`].
pub use ganopc_geometry::raster::Raster as Field;

use std::error::Error;
use std::fmt;

/// Errors from lithography model construction or simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum LithoError {
    /// Frame dimensions unusable for FFT (not a power of two) or too small
    /// for the kernel support.
    InvalidFrame(String),
    /// An FFT-level failure (propagated size mismatch).
    Fft(ganopc_fft::FftError),
    /// A field passed to the model does not match its frame.
    ShapeMismatch {
        /// Expected `(height, width)`.
        expected: (usize, usize),
        /// Received `(height, width)`.
        actual: (usize, usize),
    },
    /// Threshold calibration failed to bracket the target CD.
    Calibration(String),
}

impl fmt::Display for LithoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LithoError::InvalidFrame(msg) => write!(f, "invalid litho frame: {msg}"),
            LithoError::Fft(e) => write!(f, "fft failure: {e}"),
            LithoError::ShapeMismatch { expected, actual } => write!(
                f,
                "field shape {}x{} does not match model frame {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            LithoError::Calibration(msg) => write!(f, "threshold calibration failed: {msg}"),
        }
    }
}

impl Error for LithoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LithoError::Fft(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ganopc_fft::FftError> for LithoError {
    fn from(e: ganopc_fft::FftError) -> Self {
        LithoError::Fft(e)
    }
}
