//! Figure 5 workload bench: one full simulation per method at reduced
//! scale — the machinery behind the abort-rate panels. Regenerate the
//! actual figure with `cargo run --release -p bpush-sim --bin reproduce
//! -- fig5_left fig5_right`.

#![allow(clippy::expect_used, reason = "a broken fixture must stop the bench")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bpush_bench::bench_config;
use bpush_core::Method;
use bpush_sim::Simulation;

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5/abort-rate-simulation");
    group.sample_size(10);
    for method in [
        Method::InvalidationOnly,
        Method::InvalidationCache,
        Method::InvalidationVersionedCache,
        Method::Sgt,
        Method::SgtCache,
        Method::MultiversionBroadcast,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &method| {
                b.iter(|| {
                    let metrics = Simulation::new(bench_config(), method)
                        .expect("valid config")
                        .run()
                        .expect("run completes");
                    assert_eq!(metrics.violations, 0);
                    metrics.aborts.rate()
                });
            },
        );
    }
    group.finish();
}

fn bench_query_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5/query-size-sweep");
    group.sample_size(10);
    for reads in [4u32, 12, 24] {
        group.bench_with_input(BenchmarkId::from_parameter(reads), &reads, |b, &reads| {
            b.iter(|| {
                let mut cfg = bench_config();
                cfg.client.reads_per_query = reads;
                Simulation::new(cfg, Method::InvalidationOnly)
                    .expect("valid config")
                    .run()
                    .expect("run completes")
                    .aborts
                    .rate()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_methods, bench_query_sizes);
criterion_main!(benches);
