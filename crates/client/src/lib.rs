//! The broadcast-push client runtime.
//!
//! Pairs a [`bpush_core::ReadOnlyProtocol`] with the machinery a real
//! client needs (§4, §5.1 of *Pitoura & Chrysanthis 1999*):
//!
//! * [`ClientCache`] — an LRU cache kept coherent by invalidation +
//!   autoprefetch, with the versioned (§4.1) and split multiversion
//!   (§4.2) extensions,
//! * [`QueryExecutor`] — runs queries against the broadcast: samples
//!   Zipf-skewed readsets, waits for items' slots, thinks between reads,
//!   tracks spans and latency, injects disconnections, and reports a
//!   [`QueryOutcome`] per query,
//! * [`lru::LruMap`] — the replacement policy building block.
//!
//! # Example
//!
//! ```
//! use bpush_client::{CacheParams, ClientCache, QueryExecutor};
//! use bpush_core::Method;
//! use bpush_server::{BroadcastServer, ServerOptions};
//! use bpush_types::{ClientConfig, ClientId, ServerConfig, Slot};
//!
//! let sc = ServerConfig { broadcast_size: 100, update_range: 50,
//!     server_read_range: 100, updates_per_cycle: 10,
//!     ..ServerConfig::default() };
//! let cc = ClientConfig { read_range: 100, reads_per_query: 4,
//!     ..ClientConfig::default() };
//! let mut server = BroadcastServer::new(sc, ServerOptions::plain(), 1)?;
//! let mut client = QueryExecutor::new(
//!     ClientId::new(0), cc, Method::InvalidationOnly.build_protocol(),
//!     None, 5, 42)?;
//! let mut start = Slot::ZERO;
//! let mut finished = Vec::new();
//! for _ in 0..40 {
//!     let bcast = server.run_cycle();
//!     finished.extend(client.run_cycle(&bcast, start, true)?);
//!     start = start.plus(bcast.total_slots());
//! }
//! assert_eq!(finished.len(), 5);
//! # Ok::<(), bpush_types::BpushError>(())
//! ```

#![warn(missing_debug_implementations)]

mod cache;
mod executor;
pub mod lru;
pub mod session;
pub mod wire;

pub use cache::{CacheParams, CacheStats, ClientCache};
pub use executor::{QueryExecutor, QueryOutcome};
pub use session::{BroadcastSession, ReadStep, TxnHandle};
pub use wire::{WireClient, WireTxn};
