//! Stock-ticker dissemination: why consistency needs more than caching.
//!
//! The paper's motivating applications include stock-quote feeds (§1).
//! Here a server broadcasts 500 instruments; a brokerage's pricing engine
//! repeatedly values a *portfolio* — a multi-quote read-only transaction
//! whose quotes must come from one consistent market state, or the
//! computed value mixes pre- and post-trade prices.
//!
//! The example contrasts three ways of running the same portfolio
//! workload: plain invalidation-only (aborts whenever a held quote
//! ticks), invalidation-only with a versioned cache (pins the portfolio
//! at the first tick), and SGT (commits unless an actual serialization
//! cycle forms), printing the acceptance rate and currency trade-offs.
//!
//! Run with: `cargo run --release --example stock_ticker`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use bpush_core::Method;
use bpush_sim::Simulation;
use bpush_types::{CacheConfig, ClientConfig, ServerConfig, SimConfig};

fn market_config() -> SimConfig {
    SimConfig {
        server: ServerConfig {
            broadcast_size: 500,
            // the actively traded half of the market ticks
            update_range: 250,
            server_read_range: 500,
            // a busy tape: 40 trades per broadcast cycle
            updates_per_cycle: 40,
            txns_per_cycle: 10,
            // portfolios concentrate on the same hot names that trade
            offset: 0,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 250,
            // a 12-position portfolio per valuation
            reads_per_query: 12,
            think_time: 1,
            cache: CacheConfig {
                capacity: 80,
                ..CacheConfig::default()
            },
            ..ClientConfig::default()
        },
        n_clients: 4,
        queries_per_client: 40,
        warmup_cycles: 5,
        max_cycles: 100_000,
        seed: 2_2008,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("portfolio valuation over a broadcast stock ticker");
    println!("(500 instruments, 40 trades/cycle, 12-position portfolios)\n");
    println!(
        "{:<22} {:>10} {:>12} {:>16}",
        "method", "accepted", "latency", "currency"
    );
    for method in [
        Method::InvalidationOnly,
        Method::InvalidationCache,
        Method::InvalidationVersionedCache,
        Method::SgtCache,
    ] {
        let metrics = Simulation::new(market_config(), method)?.run()?;
        assert_eq!(metrics.violations, 0, "consistency must never be violated");
        let currency = match method {
            Method::InvalidationOnly | Method::InvalidationCache => "tick-fresh",
            Method::InvalidationVersionedCache => "as of first tick",
            _ => "serializable mix",
        };
        println!(
            "{:<22} {:>9.1}% {:>9.2} cyc {:>16}",
            method.name(),
            100.0 - metrics.abort_pct(),
            metrics.latency_cycles.mean(),
            currency,
        );
    }
    println!(
        "\nEvery committed valuation read one consistent market state \
         (verified against the server's trade history)."
    );
    Ok(())
}
