//! Runs the seeded-bug fixture through the bpush-core conformance
//! battery — and proves it **passes**.
//!
//! `BrokenInvalidation` mis-shifts the staleness boundary by one cycle,
//! yet every pointwise contract the battery probes still holds: the
//! battery exercises single-step protocol obligations, not cross-cycle
//! serializability. That partiality is exactly the gap the model
//! checker fills — `tests/mc_replay.rs` pins the counterexample the
//! checker finds for this same fixture at CI scope.
//!
//! (This file is also the `L4/conformance` evidence `cargo xtask lint`
//! scans for: it names `BrokenInvalidation` next to the battery run.)

#![allow(clippy::unwrap_used, reason = "tests are exempt from library lints")]

use bpush_core::conformance;
use bpush_mc::BrokenInvalidation;

/// The battery cannot tell the broken fixture from a genuine protocol:
/// its staleness check only misfires across a cycle boundary, which the
/// battery's single-control-step probes never cross.
#[test]
fn broken_invalidation_passes_the_conformance_battery() {
    let violations = conformance::check(&|| Box::new(BrokenInvalidation::new()));
    assert!(
        violations.is_empty(),
        "the fixture is supposed to slip past the battery (that is the \
         point of the model checker); it was caught instead:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
