//! Shared harness for regenerating every table and figure of the GAN-OPC
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! The binaries in `src/bin/` are thin wrappers around this module:
//!
//! | binary         | paper artifact |
//! |----------------|----------------|
//! | `table2`       | Table 2 (ILT vs GAN-OPC vs PGAN-OPC) |
//! | `fig2_defects` | Fig. 2 defect taxonomy |
//! | `fig7_curves`  | Fig. 7 training curves |
//! | `fig8_gallery` | Fig. 8 mask/wafer gallery |
//! | `fig9_details` | Fig. 9 defect close-ups |
//! | `ablations`    | design-choice ablations (DESIGN.md §4) |
//!
//! Scale is controlled by the `GANOPC_SCALE` environment variable:
//! `quick` (default — minutes on a laptop) or `paper` (closer to the
//! paper's resolutions; hours).

use ganopc_core::pretrain::{pretrain_generator, PretrainConfig};
use ganopc_core::{
    Discriminator, FlowConfig, GanOpcFlow, GanTrainer, Generator, OpcDataset, StepStats,
    TrainConfig,
};
use ganopc_geometry::synthesis::{benchmark_suite, BenchmarkClip};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::{Field, LithoModel, OpticalConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes on a laptop; resolutions halved again from `Paper`.
    Quick,
    /// The scaled-reproduction setting documented in EXPERIMENTS.md.
    Paper,
}

impl Scale {
    /// Reads `GANOPC_SCALE` (`quick`/`paper`), defaulting to `Quick`.
    pub fn from_env() -> Scale {
        match std::env::var("GANOPC_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Network resolution.
    pub fn net_size(self) -> usize {
        match self {
            Scale::Quick => 64,
            Scale::Paper => 64,
        }
    }

    /// Lithography evaluation resolution.
    pub fn litho_size(self) -> usize {
        match self {
            Scale::Quick => 128,
            Scale::Paper => 256,
        }
    }

    /// Training library size (paper: 4000).
    pub fn dataset_count(self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Paper => 200,
        }
    }

    /// Algorithm 2 iterations.
    pub fn pretrain_iters(self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Paper => 200,
        }
    }

    /// Algorithm 1 iterations.
    pub fn gan_iters(self) -> usize {
        match self {
            Scale::Quick => 300,
            Scale::Paper => 500,
        }
    }

    /// Baseline (full) ILT iteration budget.
    pub fn ilt_iters(self) -> usize {
        match self {
            Scale::Quick => 150,
            Scale::Paper => 320,
        }
    }
}

/// One paper Table 2 row: `(ID, area, [L2, PVB, RT])` for ILT \[7\], GAN-OPC
/// and PGAN-OPC respectively.
pub type PaperTable2Row = (usize, i64, [f64; 3], [f64; 3], [f64; 3]);

/// Paper Table 2 rows — used to print the reference alongside our
/// measurements.
pub const PAPER_TABLE2: [PaperTable2Row; 10] = [
    (1, 215_344, [49893.0, 65534.0, 1280.0], [54970.0, 64163.0, 380.0], [52570.0, 56267.0, 358.0]),
    (2, 169_280, [50369.0, 48230.0, 381.0], [46445.0, 56731.0, 374.0], [42253.0, 50822.0, 368.0]),
    (3, 213_504, [81007.0, 108608.0, 1123.0], [88899.0, 84308.0, 379.0], [83663.0, 94498.0, 368.0]),
    (4, 82_560, [20044.0, 28285.0, 1271.0], [18290.0, 29245.0, 376.0], [19965.0, 28957.0, 377.0]),
    (5, 281_958, [44656.0, 58835.0, 1120.0], [42835.0, 59727.0, 378.0], [44733.0, 59328.0, 369.0]),
    (6, 286_234, [57375.0, 48739.0, 391.0], [44313.0, 52627.0, 367.0], [46062.0, 52845.0, 364.0]),
    (7, 229_149, [37221.0, 43490.0, 406.0], [24481.0, 47652.0, 377.0], [26438.0, 47981.0, 377.0]),
    (8, 128_544, [19782.0, 22846.0, 388.0], [17399.0, 23769.0, 394.0], [17690.0, 23564.0, 383.0]),
    (9, 317_581, [55399.0, 66331.0, 1138.0], [53637.0, 66766.0, 427.0], [56125.0, 65417.0, 383.0]),
    (10, 102_400, [24381.0, 18097.0, 387.0], [9677.0, 20693.0, 395.0], [9990.0, 19893.0, 366.0]),
];

/// The ten regenerated benchmark clips rasterized at lithography
/// resolution.
pub fn rasterized_suite(litho_size: usize) -> Vec<(BenchmarkClip, Field)> {
    benchmark_suite(2048)
        .into_iter()
        .map(|clip| {
            let raster = clip.layout.rasterize_raster(litho_size, litho_size).binarize(0.5);
            (clip, raster)
        })
        .collect()
}

/// Builds the training dataset used by every training-based experiment.
///
/// # Panics
///
/// Panics on lithography/ILT failures (experiment binaries are allowed to
/// abort loudly).
pub fn build_dataset(scale: Scale, seed: u64) -> OpcDataset {
    let mut reference = IltConfig::refinement();
    reference.max_iterations = match scale {
        Scale::Quick => 50,
        Scale::Paper => 120,
    };
    OpcDataset::synthesize(scale.net_size(), scale.dataset_count(), reference, seed)
        // PANIC: documented above — the figure harness aborts on setup failure.
        .expect("dataset synthesis failed")
}

/// A litho model at network resolution for Algorithm 2.
///
/// # Panics
///
/// Panics on construction failure.
pub fn pretrain_model(scale: Scale) -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / scale.net_size() as f64);
    cfg.num_kernels = 12;
    // PANIC: documented above — the figure harness aborts on setup failure.
    LithoModel::new_cached(cfg, scale.net_size(), scale.net_size()).expect("litho model")
}

/// Outcome of training one generator variant.
pub struct TrainedVariant {
    /// The trained generator.
    pub generator: Generator,
    /// Fig. 7 curve: mean per-pixel L2 between generated and reference
    /// masks per training step.
    pub l2_curve: Vec<f64>,
    /// Pre-training litho-error curve (empty for the unpretrained variant).
    pub pretrain_curve: Vec<f64>,
}

/// Trains a GAN-OPC generator, optionally with ILT-guided pre-training
/// (Algorithm 2) — `pretrained = false` reproduces "GAN-OPC",
/// `true` reproduces "PGAN-OPC" (paper Section 4 terminology).
///
/// # Panics
///
/// Panics on any training failure.
pub fn train_variant(
    scale: Scale,
    dataset: &OpcDataset,
    pretrained: bool,
    seed: u64,
) -> TrainedVariant {
    let net = scale.net_size();
    let mut generator = Generator::new(net, 8, seed);
    let mut pretrain_curve = Vec::new();
    if pretrained {
        let model = pretrain_model(scale);
        let mut pcfg = PretrainConfig::paper_scaled();
        pcfg.iterations = scale.pretrain_iters();
        pcfg.batch_size = 4;
        pcfg.seed = seed ^ 0xABCD;
        let stats = pretrain_generator(&mut generator, &model, dataset, &pcfg)
            // PANIC: documented on train_variant — the harness aborts on failure.
            .expect("pre-training failed");
        pretrain_curve = stats.iter().map(|s| s.litho_error).collect();
    }
    let discriminator = Discriminator::new(net, 8, seed ^ 0x5555);
    let mut tcfg = TrainConfig::paper_scaled();
    tcfg.iterations = scale.gan_iters();
    tcfg.batch_size = 4;
    tcfg.alpha = 2.0;
    tcfg.seed = seed ^ 0x1111;
    let mut trainer = GanTrainer::new(generator, discriminator, tcfg);
    let stats: Vec<StepStats> = trainer.train(dataset);
    let (generator, _) = trainer.into_networks();
    TrainedVariant {
        generator,
        l2_curve: stats.iter().map(|s| s.l2_loss).collect(),
        pretrain_curve,
    }
}

/// Per-flow measurement of one benchmark clip (one cell group of Table 2).
#[derive(Debug, Clone, Copy)]
pub struct FlowMeasurement {
    /// Squared L2 at nominal dose, nm².
    pub l2_nm2: f64,
    /// PV band area, nm².
    pub pvb_nm2: f64,
    /// Runtime, seconds.
    pub runtime_s: f64,
}

/// Builds the full-strength ILT baseline engine at evaluation resolution.
///
/// # Panics
///
/// Panics on lithography construction failure.
pub fn make_baseline(scale: Scale) -> IltEngine {
    let mut cfg = IltConfig::mosaic();
    cfg.max_iterations = scale.ilt_iters();
    // PANIC: documented above — the figure harness aborts on setup failure.
    let model = LithoModel::iccad2013_like_cached(scale.litho_size()).expect("litho model");
    IltEngine::new(model, cfg)
}

/// Runs the ILT baseline on one clip.
///
/// # Panics
///
/// Panics on optimization failure.
pub fn measure_baseline(engine: &mut IltEngine, target: &Field) -> FlowMeasurement {
    // PANIC: documented above — the figure harness aborts on failure.
    let result = engine.optimize(target).expect("ilt baseline failed");
    let px = engine.model().pixel_nm();
    let [inner, _, outer] = engine.model().process_window(&result.mask);
    FlowMeasurement {
        l2_nm2: result.binary_l2_nm2,
        pvb_nm2: ganopc_litho::metrics::pvb_nm2(&inner, &outer, px),
        runtime_s: result.runtime_s,
    }
}

/// Wraps a trained generator into an evaluation-resolution GAN-OPC flow.
///
/// # Panics
///
/// Panics on construction failure.
pub fn make_flow(scale: Scale, generator: Generator) -> GanOpcFlow {
    let mut cfg = FlowConfig::paper_scaled();
    cfg.net_size = scale.net_size();
    cfg.litho_size = scale.litho_size();
    cfg.base_channels = 8;
    cfg.refinement = IltConfig::refinement();
    // Run the refinement to genuine convergence: the GAN flow's runtime
    // advantage must come from a better starting point, not a lower cap.
    cfg.refinement.max_iterations = 200;
    // Same convergence rule as the ILT baseline (IltConfig::mosaic), so the
    // runtime advantage comes purely from the warmer starting point.
    cfg.refinement.tolerance = 1e-4;
    cfg.refinement.patience = 12;
    // PANIC: documented on make_flow — the harness aborts on setup failure.
    GanOpcFlow::with_generator(cfg, generator).expect("flow construction")
}

/// Runs a GAN-OPC flow on one clip.
///
/// # Panics
///
/// Panics on flow failure.
pub fn measure_flow(flow: &mut GanOpcFlow, target: &Field) -> FlowMeasurement {
    // PANIC: documented above — the figure harness aborts on failure.
    let result = flow.optimize(target).expect("flow failed");
    FlowMeasurement {
        l2_nm2: result.l2_nm2,
        pvb_nm2: result.metrics.pvb_nm2,
        runtime_s: result.total_runtime_s,
    }
}

/// Column-aligned Table 2 row formatting.
pub fn format_row(id: &str, area: i64, cells: &[FlowMeasurement]) -> String {
    let mut s = format!("{id:>4} {area:>9}");
    for c in cells {
        s.push_str(&format!(" | {:>9.0} {:>9.0} {:>7.2}", c.l2_nm2, c.pvb_nm2, c.runtime_s));
    }
    s
}

/// Mean over a column of measurements.
pub fn mean_measurement(cells: &[FlowMeasurement]) -> FlowMeasurement {
    let n = cells.len().max(1) as f64;
    FlowMeasurement {
        l2_nm2: cells.iter().map(|c| c.l2_nm2).sum::<f64>() / n,
        pvb_nm2: cells.iter().map(|c| c.pvb_nm2).sum::<f64>() / n,
        runtime_s: cells.iter().map(|c| c.runtime_s).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accessors_are_consistent() {
        for scale in [Scale::Quick, Scale::Paper] {
            assert!(scale.litho_size() % scale.net_size() == 0);
            assert!(scale.dataset_count() > 0);
        }
    }

    #[test]
    fn paper_table2_averages_match_paper() {
        // The paper reports averages 44012.7 / 50899.5 / 788.5 for ILT.
        let n = PAPER_TABLE2.len() as f64;
        let avg_l2: f64 = PAPER_TABLE2.iter().map(|r| r.2[0]).sum::<f64>() / n;
        let avg_pvb: f64 = PAPER_TABLE2.iter().map(|r| r.2[1]).sum::<f64>() / n;
        let avg_rt: f64 = PAPER_TABLE2.iter().map(|r| r.2[2]).sum::<f64>() / n;
        assert!((avg_l2 - 44012.7).abs() < 0.5);
        assert!((avg_pvb - 50899.5).abs() < 0.5);
        assert!((avg_rt - 788.5).abs() < 0.5);
        // And PGAN-OPC ratios 0.908 / 0.981 / 0.471.
        let pgan_l2: f64 = PAPER_TABLE2.iter().map(|r| r.4[0]).sum::<f64>() / n;
        assert!((pgan_l2 / avg_l2 - 0.908).abs() < 0.002);
        let pgan_rt: f64 = PAPER_TABLE2.iter().map(|r| r.4[2]).sum::<f64>() / n;
        assert!((pgan_rt / avg_rt - 0.471).abs() < 0.002);
    }

    #[test]
    fn suite_has_ten_rasterized_clips() {
        let suite = rasterized_suite(64);
        assert_eq!(suite.len(), 10);
        for (clip, raster) in &suite {
            assert_eq!(raster.shape(), (64, 64));
            assert!(raster.sum() > 0.0, "case {} rasterized empty", clip.id);
        }
    }

    #[test]
    fn measurement_helpers() {
        let cells = [
            FlowMeasurement { l2_nm2: 10.0, pvb_nm2: 20.0, runtime_s: 1.0 },
            FlowMeasurement { l2_nm2: 30.0, pvb_nm2: 40.0, runtime_s: 3.0 },
        ];
        let m = mean_measurement(&cells);
        assert_eq!(m.l2_nm2, 20.0);
        assert_eq!(m.pvb_nm2, 30.0);
        assert_eq!(m.runtime_s, 2.0);
        let row = format_row("1", 1000, &cells);
        assert!(row.contains("1000"));
    }
}
