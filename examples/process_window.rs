//! Process window analysis: how OPC changes the process-variability band
//! (the "PVB" metric of Table 2, the area printed at one dose corner but
//! not the other) next to nominal fidelity, for nominal-only and for
//! process-window-aware ILT.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example process_window
//! ```

use gan_opc::geometry::{ClipSynthesizer, DesignRules};
use gan_opc::ilt::{IltConfig, IltEngine};
use gan_opc::litho::metrics::{DefectConfig, MaskMetrics};
use gan_opc::litho::{Field, LithoModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size = 128usize;
    let clip = ClipSynthesizer::new(DesignRules::m1_32nm(), 2048, 8).synthesize(11);
    let target: Field = clip.rasterize_raster(size, size).binarize(0.5);

    // Optimize with nominal-only ILT and with process-window-aware ILT
    // (MOSAIC-style: the gradient averages the 1 − δ, 1 and 1 + δ doses),
    // then compare bands: nominal-only ILT chases nominal fidelity and can
    // widen the band — the trade-off the paper discusses for its Table 2
    // PVB column.
    let mut nominal_only = IltConfig::refinement();
    nominal_only.max_iterations = 60;
    let mut engine = IltEngine::new(LithoModel::iccad2013_like(size)?, nominal_only);
    let plain = engine.optimize(&target)?;

    let mut pw_cfg = IltConfig::mosaic();
    pw_cfg.max_iterations = 60;
    let mut pw_engine = IltEngine::new(LithoModel::iccad2013_like(size)?, pw_cfg);
    let pw = pw_engine.optimize(&target)?;

    let model = engine.model();
    println!("printability by mask (dose 1 ± {:.0} %):", 100.0 * model.dose_delta());
    println!("  {:<26} {:>10} {:>10} {:>5}", "mask", "L2 nm²", "PVB nm²", "EPE");
    for (label, mask) in [
        ("uncorrected target", &target),
        ("nominal-only ILT", &plain.mask),
        ("process-window-aware ILT", &pw.mask),
    ] {
        let m = MaskMetrics::evaluate(model, mask, &target, &DefectConfig::default());
        println!("  {label:<26} {:>10.0} {:>10.0} {:>5}", m.l2_nm2, m.pvb_nm2, m.epe_violations);
    }
    Ok(())
}
