//! Benchmark support for the `bpush` workspace.
//!
//! The Criterion benches under `benches/` measure, per paper artifact,
//! the cost of the machinery that regenerates it (the `reproduce` binary
//! in `bpush-sim` prints the artifacts themselves):
//!
//! * `fig5_abort_rates` — one reduced-scale simulation per method,
//! * `fig7_size_model` — the analytic size expressions,
//! * `substrate` — serialization-graph, cache, workload-sampling and
//!   bcast-assembly microbenchmarks.
//!
//! This library crate only hosts shared helpers.

use bpush_types::{CacheConfig, ClientConfig, ServerConfig, SimConfig};

/// A small but non-trivial configuration used by the simulation benches:
/// large enough to exercise every code path, small enough for Criterion's
/// repeated sampling.
pub fn bench_config() -> SimConfig {
    SimConfig {
        server: ServerConfig {
            broadcast_size: 200,
            update_range: 100,
            server_read_range: 200,
            updates_per_cycle: 10,
            txns_per_cycle: 5,
            offset: 20,
            versions_retained: 12,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 100,
            reads_per_query: 6,
            cache: CacheConfig {
                capacity: 30,
                ..CacheConfig::default()
            },
            ..ClientConfig::default()
        },
        n_clients: 2,
        queries_per_client: 10,
        warmup_cycles: 2,
        max_cycles: 50_000,
        seed: 0xBE7C,
    }
}
