#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Fixture: L11 taint — a clock reached through a crate outside the
//! deterministic set.

use fixture_util::{pure_len, stamp_micros};

/// Deterministic helper call — the passing case.
pub fn deterministic_len(xs: &[u32]) -> usize {
    pure_len(xs)
}

/// Reaches a clock through the helper crate — the cross-crate leg.
pub fn seeded_stamp() -> u64 {
    stamp_micros()
}
