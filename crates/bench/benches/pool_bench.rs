//! Criterion bench B7: worker-pool dispatch overhead.
//!
//! Eight trivial jobs at four threads measure pure hand-off cost — the work
//! itself is a few nanoseconds, so the timings are dominated by how the jobs
//! reach the workers through the persistent work-crew (parked workers,
//! shared job descriptor, atomic chunk claims).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ganopc_nn::pool;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bench_pool_dispatch(c: &mut Criterion) {
    pool::set_max_threads(Some(4));
    // Spawn the crew before timing so the row measures steady-state
    // dispatch, not one-time thread creation.
    pool::run_chunks(8, |r| {
        black_box(r.len());
    });

    let mut group = c.benchmark_group("pool_dispatch");
    group.sample_size(60);
    group.bench_function("crew_run_chunks_8jobs_4t", |b| {
        b.iter(|| {
            let acc = AtomicUsize::new(0);
            pool::run_chunks(8, |r| {
                acc.fetch_add(r.start + r.len(), Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });
    group.finish();
    pool::set_max_threads(None);
}

criterion_group!(benches, bench_pool_dispatch);
criterion_main!(benches);
