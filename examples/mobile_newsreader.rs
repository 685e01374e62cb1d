//! A mobile news reader that keeps disconnecting.
//!
//! Wireless clients sleep their receivers to save battery and lose the
//! channel in tunnels (§5.2.2). This example injects heavy per-cycle
//! disconnection and compares how the methods cope:
//!
//! * invalidation-only must hear *every* report, so gaps kill its
//!   queries — unless the server broadcasts windowed reports,
//! * SGT likewise, unless items carry version numbers (the §5.2.2
//!   enhancement),
//! * multiversion broadcast and multiversion caching ride out gaps as
//!   long as the versions they need survive on air or in cache.
//!
//! Run with: `cargo run --release --example mobile_newsreader`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use bpush_core::Method;
use bpush_sim::Simulation;
use bpush_types::{CacheConfig, ClientConfig, ServerConfig, SimConfig};

fn reader_config(disconnect_prob: f64, report_window: u32) -> SimConfig {
    SimConfig {
        server: ServerConfig {
            broadcast_size: 400,
            update_range: 200,
            server_read_range: 400,
            updates_per_cycle: 15,
            txns_per_cycle: 5,
            offset: 50,
            versions_retained: 24,
            report_window,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 200,
            reads_per_query: 6,
            think_time: 2,
            cache: CacheConfig {
                capacity: 60,
                old_version_fraction: 0.25,
            },
            disconnect_prob,
            ..ClientConfig::default()
        },
        n_clients: 4,
        queries_per_client: 30,
        warmup_cycles: 5,
        max_cycles: 200_000,
        seed: 0xCAFE,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = 0.25;
    println!(
        "mobile news reader, {:.0}% chance of missing each cycle\n",
        p * 100.0
    );
    println!("{:<22} {:>10} {:>14}", "method", "accepted", "note");
    let cases: [(Method, u32, &str); 6] = [
        (Method::InvalidationOnly, 1, "needs every report"),
        (Method::InvalidationOnly, 4, "w=4 windowed reports"),
        (Method::Sgt, 1, "needs every report"),
        (Method::SgtVersionedItems, 1, "reads pre-gap versions"),
        (Method::MultiversionBroadcast, 1, "versions stay on air"),
        (Method::MultiversionCaching, 1, "versions stay in cache"),
    ];
    for (method, window, note) in cases {
        let metrics = Simulation::new(reader_config(p, window), method)?.run()?;
        assert_eq!(metrics.violations, 0, "gaps must never break consistency");
        let label = if window > 1 {
            format!("{} (w={window})", method.name())
        } else {
            method.name().to_owned()
        };
        println!(
            "{:<22} {:>9.1}% {:>22}",
            label,
            100.0 - metrics.abort_pct(),
            note
        );
    }
    println!(
        "\nTolerant methods keep committing through gaps, and every commit \
         is still a\nconsistent snapshot — checked against the server's \
         ground-truth history."
    );
    Ok(())
}
