//! Common vocabulary types for the `bpush` suite.
//!
//! `bpush` is a from-scratch reproduction of *"Scalable Processing of
//! Read-Only Transactions in Broadcast Push"* (Pitoura & Chrysanthis,
//! ICDCS 1999). A server cyclically broadcasts a database to an unbounded
//! client population; clients execute read-only transactions ("queries")
//! that must observe transactionally consistent data, validating entirely
//! locally from control information carried on the broadcast.
//!
//! This crate holds the shared vocabulary used by every other crate in the
//! workspace:
//!
//! * strongly-typed identifiers ([`ItemId`], [`Cycle`], [`TxnId`], ...)
//!   following the newtype guidance of the Rust API Guidelines
//!   (`C-NEWTYPE`),
//! * the versioned value representation broadcast on air ([`value`]),
//! * the skewed-access workload model of the paper's §5.1
//!   ([`zipf::ZipfSampler`], [`zipf::AccessPattern`]),
//! * deterministic seed derivation ([`seed`]),
//! * configuration for server, client, cache and simulation ([`config`]),
//! * summary statistics used by the experiment harness ([`stats`]),
//! * the shared error type ([`BpushError`]).
//!
//! # Example
//!
//! ```
//! use bpush_types::{Cycle, ItemId, TxnId};
//!
//! let c = Cycle::new(7);
//! let t = TxnId::new(c, 3);
//! assert_eq!(t.cycle(), c);
//! assert!(TxnId::new(Cycle::new(6), 9) < t, "earlier cycles order first");
//! let x = ItemId::new(42);
//! assert_eq!(x.index(), 42);
//! ```

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    reason = "outside the deterministic crates: config and statistics helpers round floats"
)]
#![warn(missing_debug_implementations)]

pub mod abort;
pub mod config;
pub mod error;
pub mod ids;
pub mod seed;
pub mod stats;
pub mod value;
pub mod zipf;

pub use abort::AbortReason;
pub use config::{CacheConfig, ClientConfig, Granularity, ServerConfig, SimConfig};
pub use error::BpushError;
pub use ids::{BucketId, ClientId, Cycle, ItemId, QueryId, Slot, TxnId};
pub use value::{ItemValue, VersionedValue};
