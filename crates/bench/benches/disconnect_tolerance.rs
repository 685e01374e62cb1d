//! §5.2.2 workload bench: simulations under disconnection injection (the
//! study itself comes from `reproduce -- disconnect`).

#![allow(clippy::expect_used, reason = "a broken fixture must stop the bench")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bpush_bench::bench_config;
use bpush_core::Method;
use bpush_sim::Simulation;

fn bench_disconnect(c: &mut Criterion) {
    let mut group = c.benchmark_group("disconnect/commit-rate");
    group.sample_size(10);
    for method in [
        Method::InvalidationOnly,
        Method::SgtVersionedItems,
        Method::MultiversionBroadcast,
        Method::MultiversionCaching,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &method| {
                b.iter(|| {
                    let mut cfg = bench_config();
                    cfg.client.disconnect_prob = 0.2;
                    cfg.server.versions_retained = 24;
                    let m = Simulation::new(cfg, method)
                        .expect("valid config")
                        .run()
                        .expect("run completes");
                    assert_eq!(m.violations, 0);
                    m.abort_pct()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_disconnect);
criterion_main!(benches);
