//! The span budget: one `obs::span` enter/drop pair must cost under 50 ns
//! in a release build, so phase spans stay negligible against
//! millisecond-scale training and litho phases (DESIGN.md §13).
//!
//! A single pair is too short to time between two clock reads, so each
//! sample times `BATCH` back-to-back pairs and the per-pair cost is the
//! median sample divided by `BATCH`.
//!
//! This is the only test in its binary: the obs unit tests reset the
//! registry and record spans of their own, and must not share its process.
//!
//! ```sh
//! cargo test -q --release -p ganopc-obs --test span_budget -- --nocapture
//! ```

use ganopc_obs as obs;
use std::time::{Duration, Instant};

/// Enter/drop pairs per timed sample.
const BATCH: usize = 1024;
/// Timed samples; the reading is their median.
const SAMPLES: usize = 100;
/// Budget for one enter/drop pair, in nanoseconds.
const BUDGET_NS: f64 = 50.0;

fn span_batch() {
    for _ in 0..BATCH {
        let sp = obs::span(obs::Span::TrainStep);
        drop(sp);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the budget holds for release builds; scripts/check.sh runs this test with --release"
)]
fn span_enter_exit_stays_under_budget() {
    // Warm up for at least 3 batches and 100 ms, at most 1 000 batches.
    let warm = Instant::now();
    let mut batches = 0;
    while batches < 3 || warm.elapsed() < Duration::from_millis(100) {
        span_batch();
        batches += 1;
        if batches >= 1000 {
            break;
        }
    }
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            span_batch();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    let per_op_ns = samples[SAMPLES / 2].as_nanos() as f64 / BATCH as f64;
    println!("span enter/exit {per_op_ns:.1} ns/op (budget {BUDGET_NS} ns)");
    assert!(
        per_op_ns > 0.0 && per_op_ns < BUDGET_NS,
        "span enter/exit {per_op_ns:.1} ns/op breaks the {BUDGET_NS} ns budget"
    );
}
