//! Planned real-FFT spectral engine for the GAN-OPC lithography stack.
//!
//! Every optical computation in the workspace — Hopkins/SOCS aerial images
//! (`ganopc-litho`), inverse-lithography gradients (`ganopc-ilt`) and the
//! lithography-guided pre-training of the GAN generator — reduces to cyclic
//! convolutions of a real mask field with a set of optical kernels. This
//! crate provides the minimal, dependency-free machinery for those
//! convolutions:
//!
//! * [`Complex`] — a `#[repr(C)]` single-precision complex number with the
//!   usual arithmetic;
//! * [`Fft1d`] — a planned, iterative mixed radix-4/radix-2 Cooley–Tukey
//!   transform for power-of-two lengths, with direction-specific twiddle
//!   tables and a precomputed digit-reversal order and swap program;
//! * [`RealFft2d`] — the real-input 2-D transform over the packed Hermitian
//!   `h × (w/2+1)` half-spectrum, built on [`Fft1d`]: all row transforms run
//!   as one batch, then all stored columns as another, each vectorized across
//!   the lanes of split real/imaginary planes in per-thread working storage.
//!   Its pixel domain is a *tile* whose lanes are the image rows, its
//!   spectral domain split re/im planes, and [`RealFft2d::forward_with`] /
//!   [`RealFft2d::inverse_with`] let a caller fold its own work into the
//!   moves that enter and leave them ([`TileEntry`], [`TileExit`]); it
//!   carries the whole litho hot path;
//! * [`spectrum`] helpers — half-spectrum products, over [`Complex`] bins
//!   and over split-plane rows, and the kernel spectra
//!   ([`spectrum::KernelSpectrum`]) the convolution pipelines upstream run.
//!
//! # Example
//!
//! A cyclic convolution with a centered kernel, the sequence the litho
//! model runs per SOCS kernel: a forward transform into split planes, then
//! an inverse transform whose entry forms the spectral product row by row
//! and whose exit unpacks the image.
//!
//! ```
//! use ganopc_fft::spectrum::{mul_split, KernelSpectrum};
//! use ganopc_fft::{Complex, RealFft2d};
//!
//! # fn main() -> Result<(), ganopc_fft::FftError> {
//! let plan = RealFft2d::new(8, 8)?;
//! let mut taps = vec![Complex::ZERO; 9];
//! taps[4] = Complex::from_real(2.0); // center tap of a 3×3 kernel
//! let kernel = KernelSpectrum::new(&taps, 3, 8, 8)?;
//! let (k_re, k_im) = kernel.re_spectrum().unwrap();
//!
//! let field: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
//! let (mut m_re, mut m_im) = (vec![0.0; plan.spectrum_len()], vec![0.0; plan.spectrum_len()]);
//! plan.forward_with(
//!     |tile| tile.pack(&field),
//!     |re, im| {
//!         m_re.copy_from_slice(re);
//!         m_im.copy_from_slice(im);
//!     },
//! );
//! // Spectrum row `ky` of a split plane.
//! let hw = plan.half_width();
//! fn row_of(plane: &[f32], ky: usize, hw: usize) -> &[f32] {
//!     &plane[ky * hw..][..hw]
//! }
//! let mut out = vec![0.0f32; 64];
//! plan.inverse_with(
//!     |ky, re, im| {
//!         let mask = (row_of(&m_re, ky, hw), row_of(&m_im, ky, hw));
//!         mul_split((re, im), mask, (row_of(k_re, ky, hw), row_of(k_im, ky, hw)));
//!     },
//!     |tile| tile.unpack(&mut out),
//! );
//! // A scaled center tap scales the field.
//! assert!(out.iter().zip(&field).all(|(o, f)| (o - 2.0 * f).abs() < 1e-4));
//! # Ok(())
//! # }
//! ```
//!
//! Sizes are restricted to powers of two because every raster in the
//! reproduction (training clips, benchmark clips, kernel supports) is chosen
//! as a power of two, matching the 2048×2048 ICCAD-2013 frames.

mod complex;
mod fft1d;
mod rfft;
pub mod spectrum;

pub use complex::Complex;
pub use fft1d::Fft1d;
pub use rfft::{RealFft2d, TileEntry, TileExit};

use std::error::Error;
use std::fmt;

/// Transform direction.
///
/// [`Direction::Inverse`] applies the `1/N` normalization so that
/// `inverse(forward(x)) == x` up to rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward DFT, negative exponent, unnormalized.
    Forward,
    /// Inverse DFT, positive exponent, normalized by `1/N`.
    Inverse,
}

/// Error type for FFT planning and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// Requested length is zero or not a power of two.
    InvalidLength(usize),
    /// Buffer length does not match the planned transform size.
    SizeMismatch {
        /// Length the plan was created for.
        expected: usize,
        /// Length of the buffer actually supplied.
        actual: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::InvalidLength(n) => {
                write!(f, "fft length {n} is not a nonzero power of two")
            }
            FftError::SizeMismatch { expected, actual } => {
                write!(f, "buffer of length {actual} does not match plan size {expected}")
            }
        }
    }
}

impl Error for FftError {}

/// Returns `true` when `n` is a nonzero power of two.
///
/// ```
/// assert!(ganopc_fft::is_power_of_two(256));
/// assert!(!ganopc_fft::is_power_of_two(0));
/// assert!(!ganopc_fft::is_power_of_two(48));
/// ```
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}
