//! # gan-opc — umbrella crate
//!
//! Full-stack Rust reproduction of **GAN-OPC: Mask Optimization with
//! Lithography-guided Generative Adversarial Nets** (Yang et al., DAC 2018).
//!
//! This crate re-exports the workspace members so downstream users can depend
//! on a single package:
//!
//! * [`fft`] — planned radix-4/2 `Fft1d` under the packed real 2-D FFT
//!   `RealFft2d` that every optical computation runs on;
//! * [`geometry`] — rectilinear layout model, design rules, clip synthesis;
//! * [`litho`] — Hopkins/SOCS lithography simulator and printability metrics;
//! * [`nn`] — CPU neural-network library (tensors, conv/deconv, optimizers);
//! * [`ilt`] — inverse-lithography (MOSAIC-style) mask optimizer;
//! * [`core`] — the GAN-OPC generator/discriminator, training algorithms and
//!   the end-to-end mask-optimization flow;
//! * [`obs`] — allocation-free counters/latency histograms/traces recorded
//!   by every subsystem above, snapshotted via
//!   [`obs::MetricsSnapshot::capture`].
//!
//! # Quickstart
//!
//! ```no_run
//! use gan_opc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a lithography model and synthesize a target clip.
//! let litho = LithoModel::iccad2013_like(128)?;
//! let rules = DesignRules::m1_32nm();
//! let clip = ClipSynthesizer::new(rules, 2048, 8).synthesize(7);
//! let target = clip.rasterize_raster(128, 128).binarize(0.5);
//!
//! // Optimize a mask with the ILT baseline.
//! let mut engine = IltEngine::new(litho, IltConfig::fast());
//! let result = engine.optimize(&target)?;
//! println!("final L2 = {} nm²", result.binary_l2_nm2);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete training and evaluation pipelines and
//! `DESIGN.md` / `EXPERIMENTS.md` for the experiment inventory.

pub use ganopc_core as core;
pub use ganopc_fault as fault;
pub use ganopc_fft as fft;
pub use ganopc_geometry as geometry;
pub use ganopc_ilt as ilt;
pub use ganopc_litho as litho;
pub use ganopc_nn as nn;
pub use ganopc_obs as obs;

/// Common imports for working with the GAN-OPC stack.
pub mod prelude {
    pub use ganopc_core::{
        Discriminator, FlowConfig, GanOpcFlow, GanTrainer, Generator, PretrainConfig, Pretrainer,
        TrainConfig,
    };
    pub use ganopc_geometry::{ClipSynthesizer, DesignRules, Layout, Rect};
    pub use ganopc_ilt::{IltConfig, IltEngine, IltResult};
    pub use ganopc_litho::{Field, LithoModel, MaskMetrics};
    pub use ganopc_nn::Tensor;
}
