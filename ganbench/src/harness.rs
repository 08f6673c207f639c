//! Workload-independent machinery: the closed-loop op runner, latency
//! statistics, counter deltas, the metric tables and the result record.

use ganopc_fft::{Complex, RealFft2d};
use ganopc_nn::{gemm, pool};
use ganopc_obs::{self as obs, Counter, MetricsSnapshot};
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`. Every workload emits all of them
/// with `--trace 0`; `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("peak_rss_mb", "MB"),
    ("l2_nm2_mean", "nm2"),
    ("pvb_nm2_mean", "nm2"),
    ("epe_violations_mean", "count"),
    ("loss_final", "loss"),
];

/// Per-layer metrics, `(name, unit)`, emitted by every workload with
/// `--trace 1`. A time of a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unexplained_share", "ratio"),
    ("fft.rfft_fwd_us", "us"),
    ("fft.rfft_inv_us", "us"),
    ("litho.gradient_ms", "ms"),
    ("litho.aerial_ms", "ms"),
    ("litho.metrics_ms", "ms"),
    ("litho.gradient_share", "ratio"),
    ("litho.share", "ratio"),
    ("ilt.iters_per_op", "count"),
    ("ilt.iter_ms", "ms"),
    ("ilt.update_self_ms", "ms"),
    ("nn.infer_ms", "ms"),
    ("nn.g_forward_ms", "ms"),
    ("nn.g_backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("nn.gemm_gflops", "GFLOP/s"),
    ("nn.share", "ratio"),
    ("ganopc.batch_us", "us"),
    ("ganopc.flow_self_ms", "ms"),
    ("ganopc.step_self_ms", "ms"),
    ("ganopc.train_step_legacy_ms", "ms"),
    ("ganopc.train_step_legacy_crew_ms", "ms"),
    ("pool.dispatches_per_op", "count"),
    ("pool.parks_per_op", "count"),
    ("pool.inline_chunk_ratio", "ratio"),
    ("pool.dispatch_us", "us"),
    ("pool.speedup", "ratio"),
    ("setup.litho_model_s", "s"),
    ("setup.dataset_s", "s"),
    ("setup.generator_s", "s"),
];

/// Metric values by name; the unit comes from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name`, which must appear in one of the
    /// metric tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the metric tables");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Unit of a metric from the tables.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// One run's outcome: op counts, gate failures and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started (warm-up and gated replays included).
    pub attempted: u64,
    /// Operations that returned an error or failed the correctness gate.
    pub failed: u64,
    /// First gate failure, for the log.
    pub first_failure: Option<String>,
    /// Latency samples behind the reported percentiles.
    pub samples: usize,
    /// Metrics of both tables; the caller prints the requested one.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one op and its gate verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(msg);
        }
    }

    /// Renders the final result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter restricted to `table`, and
    /// returns it with its `correct` flag. Names missing from the run are
    /// an internal error, reported as incorrect.
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> (bool, String) {
        let mut correct = self.failed == 0;
        let mut body = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            body.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        (correct, line)
    }
}

/// Latencies of one measured phase, seconds, in op order.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Nearest-rank percentile `q ∈ [0, 1]` (0 for no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    /// Latency of each of the `inputs` inputs a loop cycles through (op `i`
    /// runs input `i % inputs`): the median of that input's repeats, so a
    /// stretch of interference moves it only if it covers half the run.
    pub fn per_input_latency(&self, inputs: usize) -> Vec<f64> {
        let inputs = inputs.clamp(1, self.0.len().max(1));
        (0..inputs)
            .map(|c| median(&self.0.iter().skip(c).step_by(inputs).copied().collect::<Vec<_>>()))
            .collect()
    }

    /// Median over the run's windows of `window` consecutive ops of
    /// `stat(window)`. A window shorter than `window` at the end joins the
    /// one before it.
    pub fn windowed(&self, window: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let window = window.max(1);
        let count = (self.0.len() / window).max(1);
        let values: Vec<f64> = (0..count)
            .map(|w| {
                let end = if w + 1 == count { self.0.len() } else { (w + 1) * window };
                stat(&self.0[w * window..end])
            })
            .collect();
        median(&values)
    }
}

/// Nearest-rank percentile of unsorted values (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `op` in a closed loop with one client: each call starts when the
/// previous one returns. `op(i)` performs op `i`, times only the program
/// call and returns that time; gate checks run outside it. The loop runs
/// for `seconds` of wall time and, when ops are slow, on until `min_ops`
/// ops have completed or three times the budget has passed. It stops only
/// after a whole number of `cycle`s of ops, so a workload that cycles
/// through `cycle` inputs weighs each input equally in every phase.
pub fn closed_loop<F>(
    seconds: f64,
    min_ops: usize,
    cycle: usize,
    out: &mut Outcome,
    mut op: F,
) -> Samples
where
    F: FnMut(usize) -> Result<Duration, String>,
{
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = samples.len() >= min_ops || elapsed >= 3.0 * seconds;
        if elapsed >= seconds && enough && samples.len() % cycle.max(1) == 0 {
            break;
        }
        match op(samples.len()) {
            Ok(d) => {
                samples.push(d.as_secs_f64());
                out.record(Ok(()));
            }
            Err(msg) => {
                out.record(Err(msg));
                // A failing op still took a turn of the loop; keep its slot
                // out of the latency sample but stop runaway failure loops.
                if out.failed >= 3 {
                    break;
                }
            }
        }
    }
    Samples(samples)
}

/// Exact pool counter deltas over one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PoolCounters {
    dispatches: u64,
    parks: u64,
    inline: u64,
    claimed: u64,
}

impl PoolCounters {
    /// Reads the crew's counters now.
    pub fn read() -> PoolCounters {
        let snap = MetricsSnapshot::capture();
        PoolCounters {
            dispatches: obs::counter_get(Counter::PoolDispatches),
            parks: obs::counter_get(Counter::PoolWorkerParks),
            inline: obs::counter_get(Counter::PoolChunksInline),
            claimed: snap.worker_claims.iter().sum(),
        }
    }

    /// Records the per-op deltas since `before` into `m`.
    pub fn record_since(before: PoolCounters, ops: usize, m: &mut Metrics) {
        let now = PoolCounters::read();
        let ops = ops.max(1) as f64;
        let inline = now.inline - before.inline;
        let chunks = inline + (now.claimed - before.claimed);
        m.set("pool.dispatches_per_op", (now.dispatches - before.dispatches) as f64 / ops);
        m.set("pool.parks_per_op", (now.parks - before.parks) as f64 / ops);
        m.set(
            "pool.inline_chunk_ratio",
            if chunks > 0 { inline as f64 / chunks as f64 } else { 0.0 },
        );
    }
}

/// The three phases of a traced run. `op(state, i, traced)` performs op
/// `i` and returns its latency; with `traced` it also replays the op's
/// layers through their public calls after the timed call, outside the
/// returned latency.
///
/// - A: the plain op at the full crew, the base of `trace.overhead`, and
///   the phase the pool counters are taken over;
/// - B: the traced op, whose p50 is the base of every share;
/// - C: the plain op at one thread, for `pool.speedup`.
///
/// Returns the traced phase's latencies.
pub fn trace_phases<S, F>(
    seconds: f64,
    cycle: usize,
    out: &mut Outcome,
    state: &mut S,
    mut op: F,
) -> Samples
where
    F: FnMut(&mut S, usize, bool) -> Result<Duration, String>,
{
    let before = PoolCounters::read();
    let untraced = closed_loop(0.4 * seconds, 10, cycle, out, |i| op(state, i, false));
    PoolCounters::record_since(before, untraced.0.len(), &mut out.metrics);
    let traced = closed_loop(0.35 * seconds, 10, cycle, out, |i| op(state, i, true));
    let threads = pool::max_threads();
    pool::set_max_threads(Some(1));
    let serial = closed_loop(0.25 * seconds, 5, cycle, out, |i| op(state, i, false));
    pool::set_max_threads(Some(threads));

    out.samples = traced.0.len();
    let base = untraced.quantile(0.5);
    let m = &mut out.metrics;
    m.set("trace.op_p50_ms", traced.quantile(0.5) * 1e3);
    m.set("trace.overhead", traced.quantile(0.5) / base - 1.0);
    m.set("pool.speedup", serial.quantile(0.5) / base);
    m.set("pool.dispatch_us", empty_dispatch_us());
    traced
}

/// Median forward and inverse `RealFft2d` time on a `size × size` image,
/// µs.
pub fn rfft_us(size: usize, image: &[f32]) -> (f64, f64) {
    let plan = RealFft2d::new(size, size).expect("power-of-two frame");
    let mut half = vec![Complex::ZERO; plan.spectrum_len()];
    let mut work = half.clone();
    let mut scratch = Vec::new();
    let mut real = vec![0.0f32; plan.real_len()];
    let (mut fwd, mut inv) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        let (r, t) = timed(|| plan.forward(image, &mut half, &mut scratch));
        r.expect("planned sizes");
        fwd.push(t);
        work.copy_from_slice(&half);
        let (r, t) = timed(|| plan.inverse(&mut work, &mut real, &mut scratch));
        r.expect("planned sizes");
        inv.push(t);
    }
    std::hint::black_box(&real);
    (median(&fwd) * 1e6, median(&inv) * 1e6)
}

/// GEMM rate of `matmul_into` at an `m × k` by `k × n` shape, GFLOP/s of
/// the computed count `2·m·k·n`, median over 200 calls.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut c = vec![0.0f32; m * n];
    let times: Vec<f64> =
        (0..200).map(|_| timed(|| gemm::matmul_into(&mut c, &a, &b, m, k, n)).1).collect();
    std::hint::black_box(&c);
    2.0 * (m * k * n) as f64 / median(&times) / 1e9
}

/// Median time of one empty `run_chunks` dispatch at the current thread
/// cap, µs, from batches of 100 dispatches.
pub fn empty_dispatch_us() -> f64 {
    let lanes = pool::max_threads();
    let batches: Vec<f64> = (0..30)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..100 {
                pool::run_chunks(lanes, |r| {
                    std::hint::black_box(r);
                });
            }
            t.elapsed().as_secs_f64() * 1e6 / 100.0
        })
        .collect();
    median(&batches)
}

/// Times `f` once, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process, MB (`VmHWM`), 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed and nothing else.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-determined permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// FNV-1a over the bit patterns of a slice of floats.
pub fn hash_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn repeat_statistics() {
        // Op i runs input i % 2; input 1 is disturbed once.
        let s = Samples(vec![1.0, 2.0, 1.0, 9.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(s.per_input_latency(2), vec![1.0, 2.0]);
        assert_eq!(Samples(vec![3.0]).per_input_latency(10), vec![3.0]);
        // Windows of 10: four full ones, the last 5 ops join the fourth.
        let s = Samples((0..45).map(f64::from).collect());
        assert_eq!(s.windowed(10, |w| w.len() as f64), 10.0);
        assert_eq!(s.windowed(10, |w| w[0]), 10.0);
        assert_eq!(Samples(vec![2.0; 7]).windowed(10, |w| quantile(w, 0.9)), 2.0);
    }

    #[test]
    fn permutation_is_seeded() {
        let p = permutation(10, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(p, permutation(10, 7));
        assert_ne!(p, permutation(10, 8));
    }

    #[test]
    fn render_flags_missing_metrics() {
        let mut out = Outcome::default();
        out.record(Ok(()));
        out.metrics.set("setup_s", 1.5);
        let (correct, line) = out.render(&[("setup_s", "s")]);
        assert!(correct);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let (correct, line) = out.render(END_TO_END);
        assert!(!correct && line.starts_with("{\"correct\": false"));
    }
}
