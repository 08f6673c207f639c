//! Closed-loop benchmark of the GAN-OPC stack.
//!
//! ```text
//! cargo run --release --manifest-path ganbench/Cargo.toml -- \
//!     --workload fig6_flow --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Workloads (see `ganbench/README.md`): `fig6_flow` (the Fig. 6 mask
//! optimization flow on the Table 2 clips) and `pretrain` (one Algorithm 2
//! step). Each run builds its inputs from `--seed`, measures for
//! `--seconds`, checks every output and prints one JSON result as its last
//! stdout line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A failed gate makes the exit code nonzero.

mod fig6;
mod harness;
#[cfg(test)]
mod selftest;
mod training;

use ganopc_core::{OpcDataset, TrainConfig};
use ganopc_ilt::IltConfig;
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::pool;
use harness::{median, Metrics, Outcome, Samples};
use std::path::{Path, PathBuf};

/// Generator initialisation seed shared by every workload. Network
/// initialisation stays fixed while the workload seed varies the data:
/// some initialisations drive the generator into subnormal floats, which
/// slows every nn kernel several-fold and would make op time bimodal
/// across seeds.
pub const G_INIT_SEED: u64 = 1;
/// Discriminator initialisation seed (see [`G_INIT_SEED`]).
pub const D_INIT_SEED: u64 = 1 ^ 0x5555;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6Flow,
    Pretrain,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Fig6Flow, Workload::Pretrain];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Flow => "fig6_flow",
            Workload::Pretrain => "pretrain",
        }
    }
}

/// Problem sizes. [`Scale::table2_quick`] is the measured configuration;
/// [`Scale::tiny`] exists for the self-test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Litho frame of the flow, px (2048 nm clips).
    pub litho: usize,
    /// Generator frame, px; also the training and pretraining frame.
    pub net: usize,
    /// Generator and discriminator base channels.
    pub base: usize,
    /// SOCS kernels of the flow's litho model.
    pub flow_kernels: usize,
    /// SOCS kernels of the network-frame litho model (Algorithm 2).
    pub train_kernels: usize,
    /// Training-set instances synthesised in setup.
    pub ds_count: usize,
    /// ILT iterations per synthesised reference mask.
    pub ds_ilt_iters: usize,
    /// Algorithm 2 steps of the flow's generator in setup.
    pub pretrain_steps: usize,
    /// Algorithm 1 steps of the flow's generator in setup.
    pub gan_steps: usize,
    /// `pretrain`: steps of the quality sentinel.
    pub quality_step: usize,
    /// Ops a run completes at least (p90 needs ten samples beyond it).
    pub min_ops: usize,
    /// Setups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// Table 2 quick scale: 128 px litho with 24 kernels, 64 px nets of
    /// base 8, 12 kernels at the network frame.
    pub fn table2_quick() -> Scale {
        Scale {
            litho: 128,
            net: 64,
            base: 8,
            flow_kernels: 24,
            train_kernels: 12,
            ds_count: 12,
            ds_ilt_iters: 40,
            pretrain_steps: 30,
            gan_steps: 60,
            quality_step: 100,
            min_ops: 100,
            setup_reps: 5,
        }
    }

    /// A seconds-long configuration for the self-test.
    pub fn tiny() -> Scale {
        Scale {
            litho: 64,
            net: 32,
            base: 4,
            flow_kernels: 8,
            train_kernels: 6,
            ds_count: 4,
            ds_ilt_iters: 6,
            pretrain_steps: 2,
            gan_steps: 2,
            quality_step: 12,
            min_ops: 12,
            setup_reps: 1,
        }
    }
}

/// One run's parameters.
#[derive(Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Private scratch directory of this run (kernel caches).
    pub run_dir: PathBuf,
}

/// Wall time of one setup's stages, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub litho_model_s: f64,
    pub dataset_s: f64,
    pub generator_s: f64,
}

/// The network-frame litho model of Algorithm 2 (cached kernel stack).
pub fn train_model(ctx: &Ctx) -> LithoModel {
    let s = &ctx.scale;
    let mut opt = OpticalConfig::default_32nm(ganopc_core::FRAME_NM / s.net as f64);
    opt.num_kernels = s.train_kernels;
    LithoModel::new_cached(opt, s.net, s.net).expect("network-frame litho model")
}

/// The training library synthesised from the seed (ILT reference masks).
pub fn dataset(ctx: &Ctx) -> OpcDataset {
    let s = &ctx.scale;
    let mut reference = IltConfig::refinement();
    reference.max_iterations = s.ds_ilt_iters;
    OpcDataset::synthesize(s.net, s.ds_count, reference, ctx.seed).expect("dataset synthesis")
}

/// The ten Table 2 clips rasterized at `px`.
pub fn table2_clips(px: usize) -> Vec<Field> {
    ganopc_geometry::synthesis::benchmark_suite(ganopc_core::FRAME_NM as i64)
        .iter()
        .map(|clip| clip.layout.rasterize_raster(px, px).binarize(0.5))
        .collect()
}

/// Algorithm 1 settings at Table 2 quick scale (batch 4, α = 2), shuffled
/// by the workload seed.
pub fn train_config(ctx: &Ctx, iterations: usize) -> TrainConfig {
    let mut cfg = TrainConfig::paper_scaled();
    cfg.iterations = iterations.max(1);
    cfg.batch_size = 4;
    cfg.alpha = 2.0;
    cfg.seed = ctx.seed;
    cfg
}

/// Records the end-to-end latency metrics of a loop that cycles through
/// `inputs` inputs, each repeat of one input the same work: every input's
/// latency is the median of its repeats ([`Samples::per_input_latency`]),
/// the percentiles are taken over the inputs, and `ops_per_s` is `inputs`
/// over their summed latency.
pub fn record_cycle_latency(samples: &Samples, inputs: usize, out: &mut Outcome) {
    out.samples = samples.0.len();
    let latency = samples.per_input_latency(inputs);
    let m = &mut out.metrics;
    m.set("ops_per_s", latency.len() as f64 / latency.iter().sum::<f64>());
    m.set("op_s_p50", harness::quantile(&latency, 0.5));
    m.set("op_s_p90", harness::quantile(&latency, 0.9));
}

/// Records the end-to-end latency metrics of a loop of same-shape ops,
/// each the median over windows of `window` consecutive ops
/// ([`Samples::windowed`]).
pub fn record_window_latency(samples: &Samples, window: usize, out: &mut Outcome) {
    out.samples = samples.0.len();
    let m = &mut out.metrics;
    m.set("ops_per_s", samples.windowed(window, |w| w.len() as f64 / w.iter().sum::<f64>()));
    m.set("op_s_p50", samples.windowed(window, |w| harness::quantile(w, 0.5)));
    m.set("op_s_p90", samples.windowed(window, |w| harness::quantile(w, 0.9)));
}

/// `matmul_into` rate at the generator's largest im2col product: the
/// second encoder convolution, `2·base` filters over `16·base` patch rows
/// and a quarter-frame of columns.
pub fn generator_gemm_gflops(net: usize, base: usize) -> f64 {
    harness::gemm_gflops(2 * base, 16 * base, (net / 4) * (net / 4))
}

/// Marks metrics of layers a workload never calls as 0.
pub fn absent(m: &mut Metrics, names: &[&'static str]) {
    for &name in names {
        m.set(name, 0.0);
    }
}

/// Runs `setup` `reps` times, each against a fresh private kernel cache,
/// keeps the last result and records the median stage times.
fn timed_setups<T>(ctx: &Ctx, m: &mut Metrics, setup: impl Fn(&Ctx) -> (T, SetupTimes)) -> T {
    let mut kept = None;
    let mut times = Vec::new();
    for rep in 0..ctx.scale.setup_reps.max(1) {
        let dir = ctx.run_dir.join(format!("kernel-cache-{rep}"));
        ganopc_litho::cache::set_cache_dir(Some(dir));
        drop(kept.take()); // free the previous setup before building the next
        let (value, t) = setup(ctx);
        times.push(t);
        kept = Some(value);
    }
    let col = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    m.set("setup_s", col(|t| t.litho_model_s + t.dataset_s + t.generator_s));
    m.set("setup.litho_model_s", col(|t| t.litho_model_s));
    m.set("setup.dataset_s", col(|t| t.dataset_s));
    m.set("setup.generator_s", col(|t| t.generator_s));
    kept.expect("at least one setup ran")
}

/// Sets up and runs one workload, returning its outcome.
pub fn run_workload(ctx: &Ctx) -> Outcome {
    ganopc_obs::set_epe_trace_stride(0);
    let mut out = Outcome::default();
    match ctx.workload {
        Workload::Fig6Flow => {
            let mut state = timed_setups(ctx, &mut out.metrics, fig6::setup);
            fig6::run(ctx, &mut state, &mut out);
        }
        Workload::Pretrain => {
            let mut state = timed_setups(ctx, &mut out.metrics, training::setup_pretrain);
            training::run_pretrain(ctx, &mut state, &mut out);
        }
    }
    out.metrics.set("peak_rss_mb", harness::peak_rss_mb());
    out
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(Path::new(".git/HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line describing how the result was produced.
fn run_record(ctx: &Ctx, out: &Outcome) -> String {
    let s = &ctx.scale;
    let kernels = match ctx.workload {
        Workload::Fig6Flow => s.flow_kernels,
        _ => s.train_kernels,
    };
    let frame = if ctx.workload == Workload::Fig6Flow { s.litho } else { s.net };
    let mut features = Vec::new();
    for (on, name) in [
        (cfg!(target_feature = "avx2"), "avx2"),
        (cfg!(target_feature = "fma"), "fma"),
        (cfg!(target_feature = "avx512f"), "avx512f"),
    ] {
        if on {
            features.push(format!("\"{name}\""));
        }
    }
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"frame_px\": {frame}, \"net_px\": {}, \"net_base\": {}, \"kernels\": {kernels}, \
         \"threads\": {}, \"available_parallelism\": {}, \"profile\": \"{}\", \
         \"target_features\": [{}], \"fault_inject\": {}, \"git_commit\": \"{}\", \
         \"ops_attempted\": {}, \"latency_samples\": {}}}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        s.net,
        s.base,
        pool::max_threads(),
        available_parallelism(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        features.join(", "),
        ganopc_fault::enabled(),
        git_commit(),
        out.attempted,
        out.samples,
    )
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Removes the run's private directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent runs; remove it only if empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

const USAGE: &str = "usage: ganopc-perfbench --workload <fig6_flow|pretrain> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_dir = RunDir(PathBuf::from(".ganbench_run").join(std::process::id().to_string()));
    pool::set_max_threads(Some(available_parallelism()));
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::table2_quick(),
        run_dir: run_dir.0.clone(),
    };
    let out = run_workload(&ctx);
    if let Some(msg) = &out.first_failure {
        eprintln!("correctness gate: {msg}");
    }
    println!("run: {}", run_record(&ctx, &out));
    let table = if trace { harness::PER_LAYER } else { harness::END_TO_END };
    let (correct, line) = out.render(table);
    println!("{line}");
    drop(run_dir);
    if !correct {
        std::process::exit(1);
    }
}
