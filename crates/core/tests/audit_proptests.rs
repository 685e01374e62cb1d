//! Differential property tests for the §2.2 audit.
//!
//! [`SerializabilityBatch`] (and [`SerializabilityValidator::check_serializable`],
//! a one-readset batch) searches forward from each overwriter with
//! [`SerializationGraph::find_reachable`], bounded by the readset's newest
//! writer when the graph is commit-ordered. The reference below is the
//! unbounded `BTreeSet` depth-first search the audit used to run. On
//! random readsets both must return the same verdict *and* the same
//! witness pair, with one batch reused across many readsets:
//!
//! * on commit-ordered graphs built by running random [`ServerTxn`]
//!   streams through [`ConflictTracker`], as the server does, where the
//!   bound prunes;
//! * on arbitrary digraphs over the same transactions, with back edges,
//!   cycles and query nodes, where the search runs unbounded.

#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    reason = "tests are exempt from library lints"
)]
use std::collections::BTreeSet;

use proptest::prelude::*;

use bpush_core::validator::{
    ConsistencyViolation, ReadRecord, SerializabilityBatch, SerializabilityValidator,
};
use bpush_server::{ConflictTracker, ServerTxn, WriteHistory};
use bpush_sgraph::{Node, SerializationGraph};
use bpush_types::{Cycle, ItemId, ItemValue, QueryId, TxnId};

const N_ITEMS: u32 = 6;

/// One random server transaction: `(read items, write mask over them)`.
type RawTxn = (Vec<u32>, Vec<bool>);

/// The audit as it was before the bounded search: for each overwriter in
/// readset order, an unbounded DFS over `successors` with a `BTreeSet`
/// visited set, reporting the first writer it pops.
fn reference_dfs(
    history: &WriteHistory,
    graph: &SerializationGraph,
    reads: &[ReadRecord],
) -> Result<(), ConsistencyViolation> {
    let writers: BTreeSet<TxnId> = reads.iter().filter_map(|r| r.value.writer()).collect();
    let overwriters: Vec<TxnId> = reads
        .iter()
        .filter_map(|r| history.next_overwrite(r.item, r.value))
        .map(|v| v.writer().unwrap())
        .collect();
    for &o in &overwriters {
        if writers.contains(&o) {
            return Err(ConsistencyViolation {
                fresh_writer: o,
                stale_overwrite: o,
            });
        }
        let mut stack = vec![Node::Txn(o)];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(t) = n.as_txn() {
                if t != o && writers.contains(&t) {
                    return Err(ConsistencyViolation {
                        fresh_writer: t,
                        stale_overwrite: o,
                    });
                }
            }
            stack.extend_from_slice(graph.successors(n));
        }
    }
    Ok(())
}

/// Runs `cycles` of random transactions through a [`ConflictTracker`]
/// the way the server does, returning the write history, the conflict
/// graph built from the per-cycle diffs, and the committed transactions.
fn serve(cycles: &[Vec<RawTxn>]) -> (WriteHistory, SerializationGraph, Vec<TxnId>) {
    let mut tracker = ConflictTracker::new(3);
    let mut history = WriteHistory::new();
    let mut graph = SerializationGraph::new();
    let mut txns = Vec::new();
    for (c, cycle_txns) in cycles.iter().enumerate() {
        let cycle = Cycle::new(c as u64 + 1);
        for (seq, (reads, mask)) in cycle_txns.iter().enumerate() {
            let id = TxnId::new(cycle, seq as u32);
            let reads: Vec<ItemId> = reads
                .iter()
                .map(|&i| ItemId::new(i))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let writes: Vec<ItemId> = reads
                .iter()
                .zip(mask.iter().chain(std::iter::repeat(&false)))
                .filter(|&(_, &w)| w)
                .map(|(&i, _)| i)
                .collect();
            for &x in &writes {
                history.record(x, ItemValue::written_by(id));
            }
            tracker.commit(&ServerTxn::new(id, reads, writes));
            txns.push(id);
        }
        let (diff, _) = tracker.end_cycle(cycle);
        graph.apply_diff(&diff);
    }
    (history, graph, txns)
}

/// Builds readsets from `(item, version index)` picks: one read per
/// item, of any committed version (the initial value included), so many
/// readsets are torn.
fn readsets(history: &WriteHistory, picks: &[Vec<(u32, usize)>]) -> Vec<Vec<ReadRecord>> {
    picks
        .iter()
        .map(|set| {
            let mut used = BTreeSet::new();
            set.iter()
                .filter(|&&(raw, _)| used.insert(raw))
                .map(|&(raw, idx)| {
                    let item = ItemId::new(raw);
                    let writes = history.writes_of(item);
                    let value = match idx % (writes.len() + 1) {
                        0 => ItemValue::initial(),
                        k => writes[k - 1],
                    };
                    ReadRecord::new(item, value)
                })
                .collect()
        })
        .collect()
}

/// Checks every readset through one reused batch and through the
/// per-readset form, against the reference DFS.
fn assert_matches_reference(
    history: &WriteHistory,
    graph: &SerializationGraph,
    sets: &[Vec<ReadRecord>],
) -> Result<(), TestCaseError> {
    let validator = SerializabilityValidator::new(history);
    let mut batch = SerializabilityBatch::new(history, graph);
    for reads in sets {
        let want = reference_dfs(history, graph, reads);
        prop_assert_eq!(batch.check(reads), want, "batch on {:?}", reads);
        prop_assert_eq!(
            validator.check_serializable(graph, reads),
            want,
            "per-readset on {:?}",
            reads
        );
    }
    Ok(())
}

fn raw_txn() -> impl Strategy<Value = RawTxn> {
    (
        proptest::collection::vec(0u32..N_ITEMS, 1..4),
        proptest::collection::vec(proptest::bool::ANY, 0..4),
    )
}

fn cycles() -> impl Strategy<Value = Vec<Vec<RawTxn>>> {
    proptest::collection::vec(proptest::collection::vec(raw_txn(), 0..4), 1..7)
}

fn picks() -> impl Strategy<Value = Vec<Vec<(u32, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..N_ITEMS, 0usize..16), 0..5),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// On the server's own (commit-ordered) conflict graphs the bounded
    /// search returns the reference DFS's verdict and witness.
    #[test]
    fn bounded_audit_matches_reference_on_conflict_graphs(
        cycles in cycles(),
        picks in picks(),
    ) {
        let (history, graph, _) = serve(&cycles);
        prop_assert!(graph.is_commit_ordered());
        let sets = readsets(&history, &picks);
        assert_matches_reference(&history, &graph, &sets)?;
    }

    /// On arbitrary digraphs (back edges, cycles, self-loops, query
    /// nodes) the unbounded search still matches the reference exactly.
    #[test]
    fn audit_matches_reference_on_arbitrary_graphs(
        cycles in cycles(),
        edges in proptest::collection::vec((0usize..32, 0usize..32), 0..40),
        picks in picks(),
    ) {
        let (history, _, txns) = serve(&cycles);
        // node pool: every committed transaction plus two query nodes
        let pool: Vec<Node> = txns
            .iter()
            .map(|&t| Node::Txn(t))
            .chain([Node::Query(QueryId::new(0)), Node::Query(QueryId::new(1))])
            .collect();
        let mut graph = SerializationGraph::new();
        for &(a, b) in &edges {
            graph.add_edge(pool[a % pool.len()], pool[b % pool.len()]);
        }
        let sets = readsets(&history, &picks);
        assert_matches_reference(&history, &graph, &sets)?;
    }
}
