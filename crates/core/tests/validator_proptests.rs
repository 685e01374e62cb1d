//! Property tests for the serializability validator, checked against a
//! brute-force oracle over random serial histories.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::disallowed_types,
    reason = "tests are exempt from library lints"
)]
use proptest::prelude::*;
use std::collections::HashMap;

use bpush_core::validator::{ReadRecord, SerializabilityValidator};
use bpush_server::WriteHistory;
use bpush_types::{Cycle, ItemId, ItemValue, TxnId};

const N_ITEMS: u32 = 6;

/// A random serial history: a sequence of writes `(item, txn position)`.
/// Returns the history plus, per item, the full version chain (initial
/// value first).
fn build_history(writes: &[(u32, u32)]) -> (WriteHistory, HashMap<ItemId, Vec<ItemValue>>) {
    let mut h = WriteHistory::new();
    let mut chains: HashMap<ItemId, Vec<ItemValue>> = (0..N_ITEMS)
        .map(|i| (ItemId::new(i), vec![ItemValue::initial()]))
        .collect();
    for (pos, &(raw, _)) in writes.iter().enumerate() {
        let item = ItemId::new(raw % N_ITEMS);
        // one transaction per write, strictly increasing serial order
        let txn = TxnId::new(Cycle::new(pos as u64), 0);
        let value = ItemValue::written_by(txn);
        h.record(item, value);
        chains.get_mut(&item).expect("known").push(value);
    }
    (h, chains)
}

/// Brute-force oracle: a readset is prefix-consistent iff there is a
/// prefix length `k` of the serial history at which every read value is
/// the latest write (or initial load) among the first `k` writes.
fn oracle_prefix_consistent(
    chains: &HashMap<ItemId, Vec<ItemValue>>,
    total_writes: usize,
    reads: &[ReadRecord],
) -> bool {
    'prefix: for k in 0..=total_writes {
        for r in reads {
            let current = chains[&r.item]
                .iter()
                .rev()
                .find(|v| match v.writer() {
                    None => true,
                    Some(w) => (w.cycle().number() as usize) < k,
                })
                .copied()
                .expect("initial value always qualifies");
            if current != r.value {
                continue 'prefix;
            }
        }
        return true;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The interval check agrees with the brute-force prefix oracle for
    /// arbitrary histories and arbitrary (possibly torn) readsets.
    #[test]
    fn interval_check_matches_prefix_oracle(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..1), 0..24),
        picks in proptest::collection::vec((0u32..N_ITEMS, 0usize..32), 0..5),
    ) {
        let (h, chains) = build_history(&writes);
        let validator = SerializabilityValidator::new(&h);
        // build a readset by picking, per chosen item, some version index
        let mut reads = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &(raw, vidx) in &picks {
            let item = ItemId::new(raw % N_ITEMS);
            if !used.insert(item) {
                continue;
            }
            let chain = &chains[&item];
            reads.push(ReadRecord::new(item, chain[vidx % chain.len()]));
        }
        let got = validator.check(&reads).is_ok();
        let want = oracle_prefix_consistent(&chains, writes.len(), &reads);
        prop_assert_eq!(got, want, "reads {:?}", reads);
    }

    /// Snapshot readsets (all values as of one prefix point) always pass
    /// both the interval check and the graph check.
    #[test]
    fn snapshots_always_pass(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..1), 0..24),
        point_frac in 0.0f64..1.0,
        subset in proptest::collection::vec(0u32..N_ITEMS, 1..4),
    ) {
        let (h, chains) = build_history(&writes);
        let validator = SerializabilityValidator::new(&h);
        let k = (writes.len() as f64 * point_frac) as usize;
        let mut reads = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &raw in &subset {
            let item = ItemId::new(raw);
            if !used.insert(item) {
                continue;
            }
            let v = chains[&item]
                .iter()
                .rev()
                .find(|v| match v.writer() {
                    None => true,
                    Some(w) => (w.cycle().number() as usize) < k,
                })
                .copied()
                .expect("initial always qualifies");
            reads.push(ReadRecord::new(item, v));
        }
        prop_assert!(validator.check(&reads).is_ok());
        // the graph check is weaker, so it must pass too (empty graph:
        // with no conflict edges, only direct writer==overwriter pairs
        // could fail, which a snapshot never contains)
        let graph = bpush_sgraph::SerializationGraph::new();
        prop_assert!(validator.check_serializable(&graph, &reads).is_ok());
    }

    /// The graph check is never *stricter* than the interval check: any
    /// prefix-consistent readset passes it, whatever edges the graph has
    /// (completeness of the weaker criterion).
    #[test]
    fn graph_check_is_weaker(
        writes in proptest::collection::vec((0u32..N_ITEMS, 0u32..1), 1..24),
        point_frac in 0.0f64..1.0,
    ) {
        let (h, chains) = build_history(&writes);
        let validator = SerializabilityValidator::new(&h);
        let k = (writes.len() as f64 * point_frac) as usize;
        let reads: Vec<ReadRecord> = (0..N_ITEMS)
            .map(|i| {
                let item = ItemId::new(i);
                let v = chains[&item]
                    .iter()
                    .rev()
                    .find(|v| match v.writer() {
                        None => true,
                        Some(w) => (w.cycle().number() as usize) < k,
                    })
                    .copied()
                    .expect("initial always qualifies");
                ReadRecord::new(item, v)
            })
            .collect();
        // build the *full* serial-order conflict graph: an edge between
        // consecutive writers of the same item
        let mut graph = bpush_sgraph::SerializationGraph::new();
        for chain in chains.values() {
            for w in chain.windows(2) {
                if let (Some(a), Some(b)) = (w[0].writer(), w[1].writer()) {
                    graph.add_edge(bpush_sgraph::Node::Txn(a), bpush_sgraph::Node::Txn(b));
                }
            }
        }
        prop_assert!(validator.check(&reads).is_ok());
        prop_assert!(validator.check_serializable(&graph, &reads).is_ok());
    }
}
