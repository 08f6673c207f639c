//! Minimal CPU neural-network library for the GAN-OPC reproduction.
//!
//! The paper trains its GAN with TensorFlow on a Titan X; no comparable Rust
//! stack is available offline, so this crate implements exactly the pieces
//! the GAN-OPC architecture needs, with *manual* (per-layer) backpropagation:
//!
//! * [`Tensor`] — dense NCHW `f32` tensors;
//! * [`layers`] — [`layers::Conv2d`], [`layers::ConvTranspose2d`] (the
//!   encoder/decoder convolutions of Fig. 4), [`layers::Linear`],
//!   [`layers::BatchNorm2d`], activations, [`layers::Flatten`] and the
//!   [`layers::Sequential`] container;
//! * [`loss`] — summed-squared-error and binary-cross-entropy losses with
//!   their input gradients (Eq. (7)–(10) assemble from these);
//! * [`optim`] — SGD with momentum (plain SGD at zero momentum, the
//!   paper's update), operating on the parameter visitation order of a
//!   network;
//! * [`init`] — seeded He/Xavier initialization so training runs are
//!   reproducible.
//!
//! Every differentiable component is validated against central finite
//! differences in its unit tests.
//!
//! # Example
//!
//! ```
//! use ganopc_nn::{layers::{Conv2d, Sequential, Relu}, Tensor};
//!
//! let mut net = Sequential::new();
//! net.push(Conv2d::new(1, 4, 3, 1, 1, 7));
//! net.push(Relu::new());
//! let x = Tensor::zeros(&[2, 1, 8, 8]);
//! let y = net.forward(&x, true);
//! assert_eq!(y.shape(), &[2, 4, 8, 8]);
//! ```

pub mod checkpoint;
pub mod gemm;
pub mod guard;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod pool;
mod tensor;

pub use tensor::Tensor;

use std::error::Error;
use std::fmt;

/// Errors surfaced by network serialization and shape plumbing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Two tensors (or a tensor and a layer) disagree on shape.
    ShapeMismatch(String),
    /// A serialized parameter blob does not match the network.
    LoadMismatch(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            NnError::LoadMismatch(msg) => write!(f, "parameter load mismatch: {msg}"),
        }
    }
}

impl Error for NnError {}
