//! Criterion bench B1: forward throughput of the packed-half-spectrum real
//! 2-D FFT — the transform that carries the litho hot path — across
//! clip-relevant sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ganopc_fft::{Complex, RealFft2d};

/// Buffers are preallocated so the numbers isolate transform cost.
fn bench_rfft_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("rfft_forward");
    group.sample_size(20);
    for size in [128usize, 256, 512, 1024] {
        let real: Vec<f32> = (0..size * size).map(|i| (i as f32 * 0.37).sin()).collect();
        let plan = RealFft2d::new(size, size).unwrap();
        let mut half = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                plan.forward(&real, &mut half, &mut scratch).unwrap();
                half.last().copied()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rfft_forward);
criterion_main!(benches);
