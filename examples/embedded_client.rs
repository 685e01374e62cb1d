//! Embedding the client library in an application (no simulator).
//!
//! Everything else in `examples/` drives full simulations; this example
//! shows the API an application embeds: `BroadcastSession` wraps a
//! protocol and a cache, while *your* code owns the radio loop — you
//! decide when to tune, the session decides what is consistent.
//!
//! Run with: `cargo run --release -p bpush-sim --example embedded_client`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use bpush_client::session::{BroadcastSession, ReadStep};
use bpush_client::{CacheParams, ClientCache};
use bpush_core::validator::SerializabilityValidator;
use bpush_core::{CacheMode, Method};
use bpush_server::{BroadcastServer, ServerOptions};
use bpush_types::{ItemId, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "airwaves": in a real deployment this is your receiver; here a
    // server produces the cycles.
    let mut server = BroadcastServer::new(
        ServerConfig {
            broadcast_size: 100,
            update_range: 50,
            server_read_range: 100,
            updates_per_cycle: 8,
            txns_per_cycle: 4,
            ..ServerConfig::default()
        },
        ServerOptions::plain(),
        2026,
    )?;

    // The embedded client: invalidation-only + a small coherent cache.
    let cache = ClientCache::new(CacheParams {
        mode: CacheMode::Plain,
        current_capacity: 16,
        old_capacity: 0,
        items_per_bucket: 1,
    });
    let mut session =
        BroadcastSession::new(Method::InvalidationCache.build_protocol(), Some(cache));

    let wanted = [ItemId::new(3), ItemId::new(17), ItemId::new(42)];
    let mut committed = 0;
    let mut aborted = 0;

    for _ in 0..12 {
        let bcast = server.run_cycle();
        session.on_bcast(&bcast);

        let txn = session.begin();
        let mut failed = false;
        for &item in &wanted {
            match session.read(txn, item, &bcast) {
                Ok(ReadStep::Done) => { /* served from cache, no tuning */ }
                Ok(ReadStep::Tune { slot }) => {
                    // a real client dozes until `slot`, then hears the bucket
                    let _wake_at = slot;
                    session.deliver(txn, item, &bcast)?;
                }
                Ok(ReadStep::NextCycle) => {
                    // simplistic app: give up rather than span cycles
                    session.abort(txn);
                    failed = true;
                    break;
                }
                Err(reason) => {
                    println!("transaction aborted: {reason}");
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            aborted += 1;
        } else {
            let readset = session.commit(txn)?;
            // the consistency promise, checked against the server's history
            SerializabilityValidator::new(server.history()).check(&readset)?;
            println!(
                "committed a consistent snapshot of {} items at {}",
                readset.len(),
                bcast.cycle()
            );
            committed += 1;
        }
    }
    println!("\n{committed} committed, {aborted} aborted");
    assert!(committed > 0, "the embedded client must commit something");
    Ok(())
}
