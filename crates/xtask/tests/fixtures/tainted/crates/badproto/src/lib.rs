#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Fixture: a protocol impl the battery never exercises (rule L4).

/// A protocol implementation with no test evidence.
#[derive(Debug)]
pub struct Widget;

impl ReadOnlyProtocol for Widget {}

/// Carries malformed annotations — the L0 violations under test: an
/// unknown rule, and a rule clippy took over.
pub fn odd() {
    // lint: allow(bogus) — no such rule
    // lint: allow(panic) — waived with `#[expect(clippy::…)]` instead
}
