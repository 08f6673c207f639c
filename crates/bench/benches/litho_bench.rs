//! Criterion bench B2: lithography forward model and ILT gradient.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ganopc_litho::{Field, LithoModel};

fn cross(size: usize) -> Field {
    let mut t = Field::zeros(size, size);
    for y in size / 4..3 * size / 4 {
        for x in size / 2 - 2..size / 2 + 2 {
            t.set(y, x, 1.0);
        }
    }
    t
}

fn bench_aerial(c: &mut Criterion) {
    let mut group = c.benchmark_group("litho_aerial_image");
    group.sample_size(10);
    for size in [64usize, 128, 512, 1024] {
        let model = LithoModel::iccad2013_like(size).unwrap();
        let mask = cross(size);
        // Warm the scratch arena so the numbers reflect steady state.
        model.aerial_image(&mask);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| model.aerial_image(&mask))
        });
    }
    group.finish();
}

fn bench_gradient(c: &mut Criterion) {
    let model = LithoModel::iccad2013_like(128).unwrap();
    let mask = cross(128).map(|v| 0.8 * v + 0.1);
    let target = cross(128);
    let mut group = c.benchmark_group("litho_gradient");
    group.sample_size(10);
    let mut grad = vec![0.0f32; 128 * 128];
    group.bench_function("eq14_into_128", |b| {
        b.iter(|| model.gradient_into(&mask, &target, 1.0, &mut grad).unwrap())
    });
    group.finish();
}

fn bench_process_window(c: &mut Criterion) {
    let model = LithoModel::iccad2013_like(128).unwrap();
    let mask = cross(128);
    let mut group = c.benchmark_group("litho_process_window");
    group.sample_size(10);
    group.bench_function("pvb_doses_128", |b| b.iter(|| model.process_window(&mask)));
    group.finish();
}

criterion_group!(benches, bench_aerial, bench_gradient, bench_process_window);
criterion_main!(benches);
