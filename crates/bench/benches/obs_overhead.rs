//! Criterion bench B9: cost of the observability primitives themselves.
//!
//! The obs layer promises "zero-overhead" in the engineering sense: a span
//! enter/exit pair must stay under 50 ns so per-step phase spans are
//! negligible against millisecond-scale training phases. Each routine runs
//! `BATCH` back-to-back operations per sample — the harness brackets every
//! sample with two clock reads, which would swamp a ~40 ns operation if
//! measured singly — so per-op cost is the reported time divided by
//! `BATCH`. `scripts/check.sh` performs that division on
//! `span_enter_exit_x1024` and enforces the budget on the result.

use criterion::{criterion_group, criterion_main, Criterion};
use ganopc_obs as obs;

/// Operations per measured sample; labels carry the `_x1024` suffix so the
/// reported totals are never mistaken for per-op times.
const BATCH: usize = 1024;

fn bench_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    // Span create → drop: two clock reads plus a histogram bucket update.
    group.bench_function("span_enter_exit_x1024", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                let sp = obs::span(obs::Span::TrainStep);
                drop(sp);
            }
        })
    });
    // Span with an explicit Duration conversion (the flow/ILT runtime path).
    group.bench_function("span_finish_duration_x1024", |b| {
        b.iter(|| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..BATCH {
                total += obs::span(obs::Span::FlowTotal).finish();
            }
            total
        })
    });
    group.bench_function("counter_add_x1024", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                obs::counter_add(obs::Counter::TrainSteps, 1);
            }
        })
    });
    group.bench_function("trace_push_x1024", |b| {
        b.iter(|| {
            for i in 0..BATCH {
                obs::trace_push(obs::Trace::IltLoss, i as f64);
            }
        })
    });
    // The composite a fully instrumented hot-path call performs.
    group.bench_function("span_counter_trace_x1024", |b| {
        b.iter(|| {
            for i in 0..BATCH {
                let sp = obs::span(obs::Span::IltIteration);
                obs::counter_add(obs::Counter::IltIterations, 1);
                obs::trace_push(obs::Trace::IltLoss, i as f64);
                drop(sp);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_span);
criterion_main!(benches);
