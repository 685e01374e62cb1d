//! Electronic-tendering board: SGT keeps bid snapshots serializable.
//!
//! §1 lists auctions and electronic tendering among the motivating
//! applications. A tender board broadcasts the current best bid per lot;
//! an analyst's dashboard periodically pulls a *consistent* cross-lot
//! snapshot (a read-only transaction over several lots) to rank bidders.
//! Bids arrive continuously, so invalidation-only keeps aborting the
//! dashboard during busy phases; SGT commits whenever the bids the
//! dashboard read are mutually serializable, and the serialization-graph
//! size stays bounded by the Lemma-1 pruning rule — which this example
//! also surfaces.
//!
//! Run with: `cargo run --release --example auction_board`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use bpush_core::{Method, Sgt, SgtConfig};
use bpush_sim::Simulation;
use bpush_types::{CacheConfig, ClientConfig, ServerConfig, SimConfig};

fn board_config(bids_per_cycle: u32) -> SimConfig {
    SimConfig {
        server: ServerConfig {
            // 300 lots on the board
            broadcast_size: 300,
            update_range: 150,
            server_read_range: 300,
            updates_per_cycle: bids_per_cycle,
            txns_per_cycle: 10,
            // bidders chase the same popular lots analysts watch
            offset: 0,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 150,
            // a 10-lot ranking snapshot
            reads_per_query: 10,
            think_time: 1,
            cache: CacheConfig {
                capacity: 60,
                ..CacheConfig::default()
            },
            ..ClientConfig::default()
        },
        n_clients: 3,
        queries_per_client: 30,
        warmup_cycles: 5,
        max_cycles: 100_000,
        seed: 0xB1D,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("cross-lot bid snapshots over a tender broadcast\n");
    println!(
        "{:>12} {:>16} {:>14} {:>16}",
        "bids/cycle", "inv-only accept", "sgt accept", "sgt+cache accept"
    );
    for bids in [10u32, 25, 50] {
        let inv = Simulation::new(board_config(bids), Method::InvalidationOnly)?.run()?;
        let sgt = Simulation::new(board_config(bids), Method::Sgt)?.run()?;
        let sgtc = Simulation::new(board_config(bids), Method::SgtCache)?.run()?;
        assert_eq!(inv.violations + sgt.violations + sgtc.violations, 0);
        println!(
            "{:>12} {:>15.1}% {:>13.1}% {:>15.1}%",
            bids,
            100.0 - inv.abort_pct(),
            100.0 - sgt.abort_pct(),
            100.0 - sgtc.abort_pct(),
        );
    }

    // Show the client-side price of SGT: the pruned local graph stays
    // tiny even while the server commits continuously (Lemma 1).
    let mut sgt = Sgt::new(SgtConfig::default());
    use bpush_core::ReadOnlyProtocol;
    sgt.begin_query(bpush_types::QueryId::new(0), bpush_types::Cycle::ZERO);
    let (nodes, edges) = sgt.graph_size();
    println!(
        "\nlocal serialization graph before any invalidation: {nodes} nodes, {edges} edges \
         (the paper's \"no overhead until an item is overwritten\")."
    );
    Ok(())
}
