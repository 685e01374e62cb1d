//! Road-traffic information service with long route queries.
//!
//! §1 lists road-traffic management among the motivating dissemination
//! applications. A regional server broadcasts per-segment travel times;
//! an in-car navigator plans a route by reading *many* segments — a long
//! read-only transaction whose span covers several broadcast cycles. With
//! current-state methods such long queries keep getting invalidated by
//! incident updates; the multiversion broadcast method (§3.2) instead
//! serializes each route query at its first read and always commits,
//! trading currency for guaranteed progress.
//!
//! The example sweeps the route length and shows the crossover: short
//! queries are fine under invalidation-only, long ones need versions.
//!
//! Run with: `cargo run --release --example road_traffic`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use bpush_core::Method;
use bpush_sim::Simulation;
use bpush_types::{CacheConfig, ClientConfig, ServerConfig, SimConfig};

fn traffic_config(route_segments: u32) -> SimConfig {
    SimConfig {
        server: ServerConfig {
            // 600 road segments in the coverage area
            broadcast_size: 600,
            // incidents hit arterials: a 300-segment hot zone
            update_range: 300,
            server_read_range: 600,
            // 25 incident/flow updates per cycle
            updates_per_cycle: 25,
            txns_per_cycle: 5,
            offset: 0,
            // keep versions long enough for cross-town routes
            versions_retained: 2 * route_segments + 8,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 300,
            reads_per_query: route_segments,
            think_time: 1,
            cache: CacheConfig::disabled(),
            ..ClientConfig::default()
        },
        n_clients: 3,
        queries_per_client: 25,
        warmup_cycles: 5,
        max_cycles: 200_000,
        seed: 1_6093,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("route planning over broadcast travel times");
    println!("(600 segments, 25 updates/cycle; route length swept)\n");
    println!(
        "{:>6} {:>18} {:>18} {:>14}",
        "route", "inv-only accept", "multiversion", "mv latency"
    );
    for route in [4u32, 8, 16, 32] {
        let inv = Simulation::new(traffic_config(route), Method::InvalidationOnly)?.run()?;
        let mv = Simulation::new(traffic_config(route), Method::MultiversionBroadcast)?.run()?;
        assert_eq!(inv.violations + mv.violations, 0);
        println!(
            "{:>6} {:>17.1}% {:>17.1}% {:>11.2} cyc",
            route,
            100.0 - inv.abort_pct(),
            100.0 - mv.abort_pct(),
            mv.latency_cycles.mean(),
        );
    }
    println!(
        "\nMultiversion broadcast commits every route query regardless of \
         length,\nreading the segment map as of the query's first read \
         (Theorem 2)."
    );
    Ok(())
}
