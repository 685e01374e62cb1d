//! Quickstart: one broadcast server, one client, one protocol.
//!
//! Builds the smallest useful setup — a server cyclically broadcasting a
//! 100-item database while committing update transactions, and a client
//! running read-only queries under the invalidation-only method (§3.1) —
//! then prints what happened and proves every committed readset was
//! consistent.
//!
//! Run with: `cargo run --example quickstart`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use bpush_client::QueryExecutor;
use bpush_core::validator::SerializabilityValidator;
use bpush_core::Method;
use bpush_server::{BroadcastServer, ServerOptions};
use bpush_types::{ClientConfig, ClientId, ServerConfig, Slot};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A server broadcasting 100 items, updating 10 of them per cycle.
    let server_config = ServerConfig {
        broadcast_size: 100,
        update_range: 50,
        server_read_range: 100,
        updates_per_cycle: 10,
        txns_per_cycle: 5,
        offset: 10,
        ..ServerConfig::default()
    };
    let mut server = BroadcastServer::new(server_config, ServerOptions::plain(), 42)?;

    // 2. A client issuing 20 read-only queries of 5 reads each, validated
    //    by the invalidation-only method.
    let client_config = ClientConfig {
        read_range: 100,
        reads_per_query: 5,
        think_time: 2,
        ..ClientConfig::default()
    };
    let mut client = QueryExecutor::new(
        ClientId::new(0),
        client_config,
        Method::InvalidationOnly.build_protocol(),
        None, // no cache in the quickstart
        20,
        7,
    )?;

    // 3. Drive broadcast cycles until the client is done.
    let mut outcomes = Vec::new();
    let mut start = Slot::ZERO;
    while !client.is_done() {
        let bcast = server.run_cycle();
        outcomes.extend(client.run_cycle(&bcast, start, true)?);
        start = start.plus(bcast.total_slots());
    }

    // 4. Report.
    let committed = outcomes.iter().filter(|o| o.committed()).count();
    println!("queries run      : {}", outcomes.len());
    println!("committed        : {committed}");
    println!("aborted          : {}", outcomes.len() - committed);
    let mean_latency: f64 = {
        let c: Vec<_> = outcomes.iter().filter(|o| o.committed()).collect();
        c.iter().map(|o| o.latency_slots() as f64).sum::<f64>() / c.len().max(1) as f64
    };
    println!("mean latency     : {mean_latency:.1} slots");

    // 5. Independently verify every committed readset against the
    //    server's ground-truth history — the paper's correctness
    //    criterion, executable.
    let validator = SerializabilityValidator::new(server.history());
    for o in outcomes.iter().filter(|o| o.committed()) {
        let interval = validator.check(&o.reads)?;
        // each committed query read a prefix-consistent snapshot
        let _ = interval;
    }
    println!("all committed readsets verified consistent");
    Ok(())
}
