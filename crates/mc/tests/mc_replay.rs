//! Regression harness for the model checker: replays the checked-in
//! minimized counterexample against the seeded `BrokenInvalidation`
//! fixture, pins the exact schedule the checker minimizes to at CI
//! scope, and proves every genuine method passes that scope — all on
//! every `cargo test`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "tests are exempt from library lints"
)]

use std::path::Path;

use bpush_mc::{check_spec, run_schedule, ProtocolSpec, Schedule, Scope};
use bpush_types::{Cycle, ItemId};

fn fixture_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("broken-invalidation.ci.mc");
    std::fs::read_to_string(path).expect("fixture counterexample is checked in")
}

/// The checked-in `mc-schedule v1` file replays to the same
/// serializability violation the checker originally reported.
#[test]
fn checked_in_counterexample_still_violates() {
    let (spec, schedule) = Schedule::parse(&fixture_text()).expect("fixture parses");
    assert_eq!(spec, ProtocolSpec::BrokenInvalidation);

    let exec = run_schedule(spec, &schedule).expect("replay runs");
    assert!(
        exec.committed,
        "the torn readset must slip through and commit"
    );
    assert_eq!(exec.reads.len(), 2);

    let witness = exec.violation.expect("replay reproduces the violation");
    assert_eq!(
        witness.to_string(),
        "readset mixes a value written by T0.0 with a value already \
         overwritten by T0.0"
    );
    assert_eq!(witness.fresh_writer, witness.stale_overwrite);
}

/// The same schedule replayed against the genuine invalidation-only
/// method aborts instead of committing: the bug, not the harness,
/// produces the violation.
#[test]
fn genuine_protocol_rejects_the_same_schedule() {
    let (_, schedule) = Schedule::parse(&fixture_text()).expect("fixture parses");
    let spec = ProtocolSpec::parse("inv-only").expect("known method");
    let exec = run_schedule(spec, &schedule).expect("replay runs");
    assert!(
        !exec.committed,
        "a genuine invalidation protocol must doom the query at the \
         cycle-1 control"
    );
    assert!(exec.violation.is_none());
}

/// Running the checker end-to-end at CI scope minimizes the broken
/// fixture's violation to exactly the checked-in schedule.
#[test]
fn checker_minimizes_to_the_checked_in_schedule() {
    let report = check_spec(ProtocolSpec::BrokenInvalidation, &Scope::ci()).expect("checker runs");
    assert!(!report.passed());

    let violation = report.violation.expect("a counterexample is reported");
    let (spec, pinned) = Schedule::parse(&fixture_text()).expect("fixture parses");
    assert_eq!(
        violation.schedule,
        pinned,
        "minimization drifted from the checked-in counterexample;\ngot:\n{}",
        violation.schedule.render(spec)
    );

    // Pin the canonical schedule structurally too, so a stale fixture
    // file cannot mask a drift.
    assert_eq!(pinned.items, 2);
    assert_eq!(pinned.versions, 2);
    assert_eq!(pinned.cycles, 2);
    assert_eq!(
        pinned.commits,
        vec![vec![vec![ItemId::new(0), ItemId::new(1)]]]
    );
    assert!(pinned.missed.is_empty());
    assert_eq!(pinned.begin, Cycle::ZERO);
    assert_eq!(pinned.reads.len(), 2);
    assert_eq!(
        (
            pinned.reads[0].item,
            pinned.reads[0].cycle,
            pinned.reads[0].from_cache
        ),
        (ItemId::new(0), Cycle::new(0), false)
    );
    assert_eq!(
        (
            pinned.reads[1].item,
            pinned.reads[1].cycle,
            pinned.reads[1].from_cache
        ),
        (ItemId::new(1), Cycle::new(1), false)
    );

    // Exploration statistics are deterministic at a fixed scope.
    assert_eq!(
        (report.executions, report.committed, report.aborted),
        (27, 27, 0)
    );
    assert_eq!(report.distinct_states, 34);
}

/// Every genuine method passes the CI scope — the gate
/// `cargo xtask mc --scope ci` enforces in CI.
#[test]
fn all_genuine_methods_pass_ci_scope() {
    for spec in ProtocolSpec::genuine() {
        let report = check_spec(spec, &Scope::ci()).expect("checker runs");
        assert!(
            report.passed(),
            "{spec} reported a violation at CI scope:\n{:?}",
            report.violation
        );
        assert!(report.executions > 0);
        assert_eq!(report.committed + report.aborted, report.executions);
    }
}

/// `render` → `parse` is lossless for the fixture schedule.
#[test]
fn fixture_round_trips_through_the_text_format() {
    let (spec, schedule) = Schedule::parse(&fixture_text()).expect("fixture parses");
    let rendered = schedule.render(spec);
    let (spec2, schedule2) = Schedule::parse(&rendered).expect("rendered form parses");
    assert_eq!(spec, spec2);
    assert_eq!(schedule, schedule2);
}
