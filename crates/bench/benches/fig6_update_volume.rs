//! Figure 6 workload bench: simulation cost as the server update volume
//! grows (the figure itself comes from `reproduce -- fig6`).

#![allow(clippy::expect_used, reason = "a broken fixture must stop the bench")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bpush_bench::bench_config;
use bpush_core::Method;
use bpush_sim::Simulation;

fn bench_update_volumes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6/update-volume");
    group.sample_size(10);
    for updates in [10u32, 40, 80] {
        for method in [Method::InvalidationOnly, Method::Sgt] {
            group.bench_with_input(
                BenchmarkId::new(method.name(), updates),
                &(method, updates),
                |b, &(method, updates)| {
                    b.iter(|| {
                        let mut cfg = bench_config();
                        cfg.server.updates_per_cycle = updates;
                        Simulation::new(cfg, method)
                            .expect("valid config")
                            .run()
                            .expect("run completes")
                            .aborts
                            .rate()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_update_volumes);
criterion_main!(benches);
