//! # ganopc-obs — allocation-free observability for the GAN-OPC stack
//!
//! Fixed-slot instrumentation primitives shared by every crate in the
//! workspace:
//!
//! * **Counters** — exact monotonic event counts ([`Counter`],
//!   [`counter_add`]). One relaxed `fetch_add`, ~8 ns on the reference box.
//! * **Span timers** — scoped wall-time measurements ([`Span`], [`span`])
//!   recorded into per-span log₂-bucketed latency histograms.
//! * **Traces** — small fixed-capacity rings of `f64` samples ([`Trace`],
//!   [`trace_push`]) for convergence curves (ILT loss, EPE counts).
//!
//! Every metric lives in a `static` array slot chosen at compile time by an
//! enum discriminant — there is no `HashMap`, no registration at runtime, no
//! locking and **no allocation anywhere on the recording path**. Snapshots
//! ([`MetricsSnapshot::capture`]) and the JSON render are the only allocating
//! operations, and they are strictly cold-path.
//!
//! ## Cost model (measured on the 1-core reference container)
//!
//! | operation | cost | mechanism |
//! |---|---|---|
//! | [`counter_add`] | ~8 ns | relaxed `fetch_add` (exact) |
//! | [`span`] + drop | ~40 ns | 2× `rdtsc` + plain load/store histogram update |
//! | [`trace_push`] | ~10 ns | relaxed load + 2 stores |
//! | [`MetricsSnapshot::capture`] | µs–ms | cold; first call calibrates the TSC |
//!
//! The span budget — one [`span`] enter/drop pair under 50 ns, read as the
//! median of 100 samples of 1 024 back-to-back pairs — is a release-build
//! property, enforced by the `tests/span_budget.rs` integration test that
//! `scripts/check.sh` runs with `--release`.
//!
//! Span timestamps use the x86-64 TSC (`rdtsc`, ~18 ns/read) rather than
//! `Instant::now()` (~35 ns/read here); ticks are converted to nanoseconds
//! once, lazily, at snapshot time. Histogram cells are updated with plain
//! atomic load/store pairs instead of `fetch_add`: that shaves the locked-RMW
//! cost that would blow the <50 ns span budget, at the price of *bounded
//! undercounting when two threads record the same span concurrently*. Counts
//! are exact in single-threaded use (trainer, ILT loop, CLI) and statistically
//! faithful for the pool metrics; anything that must be exact is a
//! [`Counter`], which keeps `fetch_add`.
//!
//! ## Adding a metric
//!
//! 1. Add a variant to [`Counter`], [`Span`] or [`Trace`] with a stable
//!    snake_case label. Declaration order **is** the JSON render order.
//! 2. Record from the code under measurement (`obs::counter_add(...)`,
//!    `let sp = obs::span(...)`).
//! 3. Nothing else: storage, snapshot capture, JSON render and the CLI flag
//!    pick the new slot up automatically.
//!
//! Span guards are RAII: bind them to a *named* local (`let sp = ...` or
//! `let _sp = ...`) so early returns and `?` still record. `let _ = ...` or a
//! bare statement drops the guard immediately and measures nothing — the
//! workspace lint's `obs` rule rejects both.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

mod clock {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Raw monotonic-ish timestamp in "ticks" (TSC counts on x86-64,
    /// nanoseconds elsewhere). Cheap enough for hot paths.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub fn now_ticks() -> u64 {
        // SAFETY: `rdtsc` has no preconditions — it reads the timestamp
        // counter register and accesses no memory.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    pub fn now_ticks() -> u64 {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
        EPOCH.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
    }

    /// `f64` bits of the calibrated ticks-per-nanosecond rate; 0 = not yet
    /// calibrated (0 is not a valid rate encoding).
    static TPN_BITS: AtomicU64 = AtomicU64::new(0);

    /// Ticks-per-nanosecond conversion rate. Calibrates on first call by
    /// spinning ~2 ms against the OS monotonic clock; cached afterwards.
    /// Only ever called from snapshot/finish paths, never from raw recording.
    #[cfg(target_arch = "x86_64")]
    pub fn ticks_per_ns() -> f64 {
        let bits = TPN_BITS.load(Relaxed);
        if bits != 0 {
            return f64::from_bits(bits);
        }
        calibrate()
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn ticks_per_ns() -> f64 {
        1.0
    }

    #[cfg(target_arch = "x86_64")]
    // lint: cold
    fn calibrate() -> f64 {
        let wall = std::time::Instant::now();
        let t0 = now_ticks();
        while wall.elapsed() < std::time::Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let ticks = now_ticks().wrapping_sub(t0);
        let nanos = wall.elapsed().as_nanos() as f64;
        let tpn = (ticks as f64 / nanos).max(1e-9);
        TPN_BITS.store(tpn.to_bits(), Relaxed);
        tpn
    }

    /// Converts a tick delta to wall time using the calibrated rate.
    pub fn ticks_to_duration(ticks: u64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(ticks as f64 / ticks_per_ns() / 1e9)
    }
}

/// Declares a fixed registry enum: contiguous `usize` discriminants used as
/// static array indices, plus `COUNT`/`ALL`/`name()` in declaration order.
macro_rules! registry_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Number of registered slots.
            pub const COUNT: usize = [$($name::$variant),+].len();
            /// Every slot, in declaration (= snapshot/render) order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant),+];

            /// Stable snake_case identifier used in logs and the JSON
            /// snapshot. Renaming a label is a schema change.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

registry_enum! {
    /// Exact monotonic event counters (relaxed `fetch_add`).
    Counter {
        /// Adversarial training steps completed (`GanTrainer::train_step`).
        TrainSteps => "train_steps",
        /// Generator pretraining steps completed (`Pretrainer`).
        PretrainSteps => "pretrain_steps",
        /// Generator inference batches (`Generator::infer_into`).
        InferBatches => "infer_batches",
        /// ILT optimizations started (`IltEngine::optimize*`).
        IltRuns => "ilt_runs",
        /// ILT inner-loop iterations across all runs.
        IltIterations => "ilt_iterations",
        /// Aerial-image simulations (`LithoModel::aerial_image_into`).
        LithoAerialCalls => "litho_aerial_calls",
        /// Litho gradient evaluations (`LithoModel::gradient_into`).
        LithoGradientCalls => "litho_gradient_calls",
        /// Parallel dispatches through the worker crew (`pool::dispatch`).
        PoolDispatches => "pool_dispatches",
        /// Chunks executed inline by the dispatching thread itself.
        PoolChunksInline => "pool_chunks_inline",
        /// Times a crew worker parked on the condvar waiting for work.
        PoolWorkerParks => "pool_worker_parks",
        /// Times a parked crew worker woke to a new dispatch generation.
        PoolWorkerWakes => "pool_worker_wakes",
        /// Checkpoint files written (`nn::checkpoint`).
        CheckpointSaves => "checkpoint_saves",
        /// Faults fired by the `ganopc-fault` injection plane.
        FaultsInjected => "faults_injected",
        /// Stale `*.tmp` artifacts removed by the startup sweep.
        StaleTmpSwept => "stale_tmp_swept",
        /// Divergence-monitor trips (non-finite loss, explosion, stall).
        SupervisorTrips => "supervisor_trips",
        /// Rollbacks to a last-good ring checkpoint after a trip.
        SupervisorRollbacks => "supervisor_rollbacks",
        /// Supervised retry attempts consumed after a rollback.
        SupervisorRetries => "supervisor_retries",
        /// Ring-checkpoint saves that failed (tolerated, counted).
        SupervisorCkptFailures => "supervisor_ckpt_failures",
        /// ILT guard-rail trips (non-finite error, no-improvement bail).
        IltGuardTrips => "ilt_guard_trips",
    }
}

registry_enum! {
    /// Scoped wall-time spans, each backed by a log₂ latency histogram.
    Span {
        /// One full adversarial training step.
        TrainStep => "train_step",
        /// Generator forward passes inside a train step.
        TrainGForward => "train_g_forward",
        /// Discriminator forward passes (real + generated batches).
        TrainDPass => "train_d_pass",
        /// Backward passes (generator + discriminator).
        TrainBackward => "train_backward",
        /// Gradient clipping and optimizer updates.
        TrainOptimizer => "train_optimizer",
        /// One generator pretraining step.
        PretrainStep => "pretrain_step",
        /// Litho-gradient fan-out inside a pretraining step.
        PretrainLitho => "pretrain_litho",
        /// One inference batch (`Generator::infer_into`).
        Infer => "infer",
        /// One full ILT optimization run.
        IltOptimize => "ilt_optimize",
        /// One ILT inner-loop iteration.
        IltIteration => "ilt_iteration",
        /// One aerial-image simulation.
        LithoAerial => "litho_aerial",
        /// One litho gradient evaluation.
        LithoGradient => "litho_gradient",
        /// One checkpoint serialization + atomic write.
        CheckpointSave => "checkpoint_save",
        /// One atomic artifact write (tmp + write + fsync + rename).
        ArtifactWrite => "artifact_write",
        /// The `fsync` portion of an atomic artifact write.
        ArtifactFsync => "artifact_fsync",
        /// Generator inference phase of the end-to-end flow.
        FlowGenerator => "flow_generator",
        /// ILT refinement phase of the end-to-end flow.
        FlowRefinement => "flow_refinement",
        /// End-to-end flow wall time (generation + refinement + metrics).
        FlowTotal => "flow_total",
    }
}

registry_enum! {
    /// Fixed-capacity `f64` sample rings (most recent [`TRACE_CAPACITY`]
    /// values survive).
    Trace {
        /// ILT objective value per inner-loop iteration.
        IltLoss => "ilt_loss",
        /// EPE violation count sampled every [`epe_trace_stride`] ILT
        /// iterations (0 disables sampling).
        IltEpe => "ilt_epe",
    }
}

/// Histogram bucket count: bucket `b` holds tick deltas in `[2^(b-1), 2^b)`
/// (bucket 0 holds zero; bucket 63 absorbs everything ≥ 2^62).
const NUM_BUCKETS: usize = 64;

/// Samples retained per [`Trace`] ring.
pub const TRACE_CAPACITY: usize = 512;

/// Per-worker claim slots tracked for the crew pool; worker indices beyond
/// this fold into the last slot.
pub const MAX_WORKER_SLOTS: usize = 64;

// Template consts exist only to const-initialize the static arrays below.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

struct Hist {
    sum: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_HIST: Hist = Hist { sum: ZERO, buckets: [ZERO; NUM_BUCKETS] };

struct Ring {
    pushed: AtomicU64,
    values: [AtomicU64; TRACE_CAPACITY],
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_RING: Ring = Ring { pushed: ZERO, values: [ZERO; TRACE_CAPACITY] };

static COUNTERS: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];
static WORKER_CLAIMS: [AtomicU64; MAX_WORKER_SLOTS] = [ZERO; MAX_WORKER_SLOTS];
static HISTS: [Hist; Span::COUNT] = [EMPTY_HIST; Span::COUNT];
static RINGS: [Ring; Trace::COUNT] = [EMPTY_RING; Trace::COUNT];
static EPE_TRACE_STRIDE: AtomicUsize = AtomicUsize::new(0);

/// Adds `n` to an exact event counter. Safe from any thread.
#[inline]
pub fn counter_add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].fetch_add(n, Relaxed);
}

/// Current value of a counter (tests, log lines).
pub fn counter_get(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Relaxed)
}

/// Credits `chunks` claimed work items to crew worker `worker`. Exact
/// (`fetch_add`): workers race on dispatch by design.
#[inline]
pub fn worker_claims_add(worker: usize, chunks: u64) {
    WORKER_CLAIMS[worker.min(MAX_WORKER_SLOTS - 1)].fetch_add(chunks, Relaxed);
}

/// Stride (in ILT iterations) between EPE-trace samples; 0 = disabled.
#[inline]
pub fn epe_trace_stride() -> usize {
    EPE_TRACE_STRIDE.load(Relaxed)
}

/// Enables (`stride > 0`) or disables (0, the default) the per-iteration
/// EPE trace inside ILT refinement. EPE sampling simulates an extra aerial
/// image per sampled iteration, so it is opt-in (the CLI turns it on when
/// `--metrics-json` is given).
pub fn set_epe_trace_stride(stride: usize) {
    EPE_TRACE_STRIDE.store(stride, Relaxed);
}

/// RAII span timer returned by [`span`]. Records into the span's histogram
/// either explicitly via [`SpanGuard::finish`] or implicitly on drop, so the
/// measurement survives `?` and early returns as long as the guard is bound
/// to a named local.
pub struct SpanGuard {
    id: Span,
    start_ticks: u64,
    armed: bool,
}

/// Starts a scoped timer for `id`. ~40 ns for the full start/record cycle.
#[inline]
pub fn span(id: Span) -> SpanGuard {
    SpanGuard { id, start_ticks: clock::now_ticks(), armed: true }
}

impl SpanGuard {
    /// Ends the span now, records it, and returns the measured wall time.
    /// Use when the elapsed time itself is needed (e.g. runtime fields in
    /// results); plain drop records without the conversion cost.
    #[inline]
    pub fn finish(mut self) -> Duration {
        let ticks = clock::now_ticks().wrapping_sub(self.start_ticks);
        self.armed = false;
        record_ticks(self.id, ticks);
        clock::ticks_to_duration(ticks)
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            record_ticks(self.id, clock::now_ticks().wrapping_sub(self.start_ticks));
        }
    }
}

/// Histogram update. Plain load/store (no locked RMW) keeps the span cycle
/// under the 50 ns budget; concurrent recorders of the *same* span may drop
/// an update (bounded undercount), which is acceptable for latency metrics.
// lint: hot-path
#[inline]
fn record_ticks(id: Span, ticks: u64) {
    let hist = &HISTS[id as usize];
    let sum = hist.sum.load(Relaxed);
    hist.sum.store(sum.wrapping_add(ticks), Relaxed);
    let cell = &hist.buckets[bucket_index(ticks)];
    cell.store(cell.load(Relaxed).wrapping_add(1), Relaxed);
}

/// log₂ bucket for a tick delta: 0 for 0, else `floor(log2(ticks)) + 1`,
/// saturating at [`NUM_BUCKETS`]` - 1`.
#[inline]
fn bucket_index(ticks: u64) -> usize {
    (64 - ticks.leading_zeros()).min(63) as usize
}

/// Appends a sample to a trace ring (single-writer; ~10 ns).
#[inline]
pub fn trace_push(trace: Trace, value: f64) {
    let ring = &RINGS[trace as usize];
    let n = ring.pushed.load(Relaxed);
    ring.values[(n as usize) % TRACE_CAPACITY].store(value.to_bits(), Relaxed);
    ring.pushed.store(n.wrapping_add(1), Relaxed);
}

/// Zeroes every counter, worker-claim slot, histogram and trace ring. The
/// TSC calibration and the EPE-trace stride survive. Intended for tests and
/// per-run CLI resets; not meaningful while other threads are recording.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Relaxed);
    }
    for c in &WORKER_CLAIMS {
        c.store(0, Relaxed);
    }
    for hist in &HISTS {
        hist.sum.store(0, Relaxed);
        for cell in &hist.buckets {
            cell.store(0, Relaxed);
        }
    }
    for ring in &RINGS {
        ring.pushed.store(0, Relaxed);
        for cell in &ring.values {
            cell.store(0, Relaxed);
        }
    }
}

/// Derived statistics for one span histogram, in nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    /// Recorded span count (sum of all histogram buckets).
    pub count: u64,
    /// Total recorded time.
    pub total_ns: f64,
    /// `total_ns / count` (0 when empty).
    pub mean_ns: f64,
    /// Median estimate: geometric midpoint of the bucket holding the
    /// median sample.
    pub p50_ns: f64,
    /// Upper bound of the highest occupied bucket.
    pub max_ns: f64,
    /// Occupied buckets as `(bucket_index, count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl SpanStats {
    fn from_buckets(sum_ticks: u64, buckets: Vec<(u32, u64)>, ticks_per_ns: f64) -> SpanStats {
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let total_ns = sum_ticks as f64 / ticks_per_ns;
        let mean_ns = if count > 0 { total_ns / count as f64 } else { 0.0 };
        let half = count.div_ceil(2);
        let mut cum = 0u64;
        let mut p50_ns = 0.0;
        for &(b, n) in &buckets {
            cum += n;
            if cum >= half {
                p50_ns = bucket_mid_ticks(b) / ticks_per_ns;
                break;
            }
        }
        let max_ns =
            buckets.last().map(|&(b, _)| bucket_upper_ticks(b) / ticks_per_ns).unwrap_or(0.0);
        SpanStats { count, total_ns, mean_ns, p50_ns, max_ns, buckets }
    }
}

/// Geometric midpoint (in ticks) of bucket `b`'s range `[2^(b-1), 2^b)`.
fn bucket_mid_ticks(b: u32) -> f64 {
    if b == 0 {
        0.0
    } else {
        1.5 * 2f64.powi(b as i32 - 1)
    }
}

/// Upper bound (in ticks) of bucket `b`'s range.
fn bucket_upper_ticks(b: u32) -> f64 {
    if b == 0 {
        0.0
    } else {
        2f64.powi(b as i32)
    }
}

/// Most-recent samples of one trace ring.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Total samples ever pushed (may exceed `values.len()`).
    pub pushed: u64,
    /// The last `min(pushed, TRACE_CAPACITY)` samples, oldest first.
    pub values: Vec<f64>,
}

/// Point-in-time copy of every registered metric, with a stable,
/// declaration-ordered JSON rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Calibrated TSC rate used for all tick→ns conversions below.
    pub ticks_per_ns: f64,
    /// `(label, value)` for every [`Counter`], declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Chunks claimed per crew worker index (trailing zero slots trimmed).
    pub worker_claims: Vec<u64>,
    /// `(label, stats)` for every [`Span`], declaration order.
    pub spans: Vec<(&'static str, SpanStats)>,
    /// `(label, samples)` for every [`Trace`], declaration order.
    pub traces: Vec<(&'static str, TraceStats)>,
}

impl MetricsSnapshot {
    /// Reads every metric slot. Allocates (cold path only); the first call
    /// in a process additionally spends ~2 ms calibrating the TSC.
    pub fn capture() -> MetricsSnapshot {
        let ticks_per_ns = clock::ticks_per_ns();
        let counters = Counter::ALL.iter().map(|&c| (c.name(), counter_get(c))).collect();
        let mut worker_claims: Vec<u64> = WORKER_CLAIMS.iter().map(|c| c.load(Relaxed)).collect();
        while worker_claims.last() == Some(&0) {
            worker_claims.pop();
        }
        let spans = Span::ALL
            .iter()
            .map(|&s| {
                let hist = &HISTS[s as usize];
                let sum_ticks = hist.sum.load(Relaxed);
                let mut buckets = Vec::new();
                for (b, cell) in hist.buckets.iter().enumerate() {
                    let n = cell.load(Relaxed);
                    if n > 0 {
                        buckets.push((b as u32, n));
                    }
                }
                (s.name(), SpanStats::from_buckets(sum_ticks, buckets, ticks_per_ns))
            })
            .collect();
        let traces = Trace::ALL
            .iter()
            .map(|&t| {
                let ring = &RINGS[t as usize];
                let pushed = ring.pushed.load(Relaxed);
                let kept = (pushed as usize).min(TRACE_CAPACITY);
                let start = if pushed as usize > TRACE_CAPACITY { pushed as usize } else { 0 };
                let values = (0..kept)
                    .map(|i| {
                        f64::from_bits(ring.values[(start + i) % TRACE_CAPACITY].load(Relaxed))
                    })
                    .collect();
                (t.name(), TraceStats { pushed, values })
            })
            .collect();
        MetricsSnapshot { ticks_per_ns, counters, worker_claims, spans, traces }
    }

    /// Value of a counter by label (0 if unknown — labels are static, so a
    /// miss is a caller typo surfaced by tests).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    /// Stats for a span by label.
    pub fn span_stats(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// Samples for a trace by label.
    pub fn trace(&self, name: &str) -> Option<&TraceStats> {
        self.traces.iter().find(|(n, _)| *n == name).map(|(_, t)| t)
    }

    /// Renders the snapshot as JSON. Key order is fixed by registry
    /// declaration order — byte-stable for identical inputs, suitable for
    /// golden tests and downstream tooling.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(8192);
        out.push_str("{\n  \"schema\": 1,\n");
        out.push_str(&format!("  \"ticks_per_ns\": {:.3},\n", self.ticks_per_ns));
        out.push_str("  \"counters\": {\n");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {v}{sep}\n"));
        }
        out.push_str("  },\n  \"pool_worker_claims\": [");
        for (i, v) in self.worker_claims.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&v.to_string());
        }
        out.push_str("],\n  \"spans\": {\n");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "    \"{name}\": {{\"count\": {}, \"total_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"p50_ns\": {:.1}, \"max_ns\": {:.1}, \"buckets\": [",
                s.count, s.total_ns, s.mean_ns, s.p50_ns, s.max_ns
            ));
            for (j, &(b, n)) in s.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"le_ns\": {:.1}, \"count\": {n}}}",
                    bucket_upper_ticks(b) / self.ticks_per_ns
                ));
            }
            out.push_str(&format!("]}}{sep}\n"));
        }
        out.push_str("  },\n  \"traces\": {\n");
        for (i, (name, t)) in self.traces.iter().enumerate() {
            let sep = if i + 1 == self.traces.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {{\"pushed\": {}, \"values\": [", t.pushed));
            for (j, v) in t.values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&fmt_json_f64(*v));
            }
            out.push_str(&format!("]}}{sep}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// JSON has no NaN/inf literals; map non-finite samples to `null`.
fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn counter_roundtrip() {
        let before = counter_get(Counter::CheckpointSaves);
        counter_add(Counter::CheckpointSaves, 3);
        assert_eq!(counter_get(Counter::CheckpointSaves), before + 3);
    }

    #[test]
    fn span_guard_records_on_drop_and_finish() {
        let snap_count =
            |name: &str| MetricsSnapshot::capture().span_stats(name).map(|s| s.count).unwrap_or(0);
        let before = snap_count("checkpoint_save");
        {
            let _sp = span(Span::CheckpointSave);
        }
        let dur = span(Span::CheckpointSave).finish();
        assert!(dur >= Duration::ZERO);
        let after = snap_count("checkpoint_save");
        assert_eq!(after, before + 2);
    }

    #[test]
    fn trace_ring_wraps_keeping_most_recent() {
        // Use the IltEpe ring; push well past capacity.
        let total = TRACE_CAPACITY + 17;
        let base = MetricsSnapshot::capture().trace("ilt_epe").map(|t| t.pushed).unwrap_or(0);
        for i in 0..total {
            trace_push(Trace::IltEpe, i as f64);
        }
        let snap = MetricsSnapshot::capture();
        let t = snap.trace("ilt_epe").expect("ilt_epe registered");
        assert_eq!(t.pushed, base + total as u64);
        assert_eq!(t.values.len(), TRACE_CAPACITY);
        // Oldest retained sample first, newest last.
        assert_eq!(*t.values.last().expect("nonempty"), (total - 1) as f64);
    }

    #[test]
    fn span_stats_math() {
        // Two samples in bucket 3 ([4, 8)), one in bucket 5 ([16, 32)),
        // with a known tick sum, at 2 ticks/ns.
        let stats = SpanStats::from_buckets(60, vec![(3, 2), (5, 1)], 2.0);
        assert_eq!(stats.count, 3);
        assert!((stats.total_ns - 30.0).abs() < 1e-9);
        assert!((stats.mean_ns - 10.0).abs() < 1e-9);
        // Median sample (2nd of 3) sits in bucket 3: mid = 1.5 * 4 = 6 ticks.
        assert!((stats.p50_ns - 3.0).abs() < 1e-9);
        // Max = upper bound of bucket 5 = 32 ticks = 16 ns.
        assert!((stats.max_ns - 16.0).abs() < 1e-9);
    }

    #[test]
    fn epe_stride_roundtrip() {
        assert_eq!(epe_trace_stride(), 0);
        set_epe_trace_stride(8);
        assert_eq!(epe_trace_stride(), 8);
        set_epe_trace_stride(0);
    }

    #[test]
    fn snapshot_json_key_order_is_stable() {
        let json = MetricsSnapshot::capture().render_json();
        let order = [
            "\"schema\"",
            "\"ticks_per_ns\"",
            "\"counters\"",
            "\"pool_worker_claims\"",
            "\"spans\"",
            "\"traces\"",
        ];
        let mut last = 0;
        for key in order {
            let pos = json.find(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(pos > last, "{key} out of order");
            last = pos;
        }
        // Spot-check registry order within sections.
        let train = json.find("\"train_steps\"").expect("train_steps");
        let ckpt = json.find("\"checkpoint_saves\"").expect("checkpoint_saves");
        assert!(train < ckpt);
    }
}
