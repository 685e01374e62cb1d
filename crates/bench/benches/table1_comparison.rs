//! Table 1 workload bench: the all-methods comparison run (the table
//! itself comes from `reproduce -- table1`).

#![allow(clippy::expect_used, reason = "a broken fixture must stop the bench")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bpush_bench::bench_config;
use bpush_core::Method;
use bpush_sim::{run_jobs, Job, Simulation};

fn bench_each_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/per-method");
    group.sample_size(10);
    for method in Method::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &method| {
                b.iter(|| {
                    Simulation::new(bench_config(), method)
                        .expect("valid config")
                        .run()
                        .expect("run completes")
                        .abort_pct()
                });
            },
        );
    }
    group.finish();
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/parallel-runner");
    group.sample_size(10);
    group.bench_function("all-methods-fanout", |b| {
        b.iter(|| {
            let jobs: Vec<Job> = Method::ALL
                .iter()
                .map(|&m| Job::new(m, bench_config()))
                .collect();
            run_jobs(jobs).expect("all jobs succeed").len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_each_method, bench_parallel_sweep);
criterion_main!(benches);
