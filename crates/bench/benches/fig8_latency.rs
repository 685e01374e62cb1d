//! Figure 8 workload bench: the latency-measurement machinery under the
//! two multiversion on-air layouts (the figure itself comes from
//! `reproduce -- fig8_left fig8_right`).

#![allow(clippy::expect_used, reason = "a broken fixture must stop the bench")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bpush_bench::bench_config;
use bpush_core::Method;
use bpush_sim::Simulation;
use bpush_types::config::MultiversionLayout;

fn bench_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8/multiversion-layout");
    group.sample_size(10);
    for layout in [MultiversionLayout::Overflow, MultiversionLayout::Clustered] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{layout:?}")),
            &layout,
            |b, &layout| {
                b.iter(|| {
                    let metrics = Simulation::with_layout(
                        bench_config(),
                        Method::MultiversionBroadcast,
                        layout,
                    )
                    .expect("valid config")
                    .run()
                    .expect("run completes");
                    metrics.latency_cycles.mean()
                });
            },
        );
    }
    group.finish();
}

fn bench_offsets(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8/offset-sweep");
    group.sample_size(10);
    for offset in [0u32, 50] {
        group.bench_with_input(
            BenchmarkId::from_parameter(offset),
            &offset,
            |b, &offset| {
                b.iter(|| {
                    let mut cfg = bench_config();
                    cfg.server.offset = offset;
                    Simulation::new(cfg, Method::MultiversionBroadcast)
                        .expect("valid config")
                        .run()
                        .expect("run completes")
                        .latency_cycles
                        .mean()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_layouts, bench_offsets);
criterion_main!(benches);
