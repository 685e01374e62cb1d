//! Differential property tests for the PR-8 word-parallel report
//! membership path: every `*_set` probe (word-AND over the report's
//! dense bitmap) must agree with the PR-3 galloping probe it screens
//! for, over random reports, readsets, granularities, and id spans —
//! including spans wide enough to degrade the bitmap back to galloping.

#![allow(clippy::unwrap_used, reason = "tests are exempt from library lints")]
use proptest::prelude::*;

use bpush_broadcast::{AugmentedReport, InvalidationReport};
use bpush_types::{Cycle, Granularity, ItemId, TxnId};

/// The word-block form of a sorted readset, exactly as
/// `ReadSet::word_blocks` exposes it to the probes: bit `b` of
/// `words[w]` is item `(base + w) * 64 + b`.
fn blocks_of(items: &[ItemId]) -> Option<(u32, Vec<u64>)> {
    let first = items.first()?;
    let base = first.index() >> 6;
    let mut words = Vec::new();
    for x in items {
        let off = ((x.index() >> 6) - base) as usize;
        if off >= words.len() {
            words.resize(off + 1, 0u64);
        }
        words[off] |= 1u64 << (x.index() & 63);
    }
    Some((base, words))
}

/// Random dated update entries. `wide` occasionally pushes one id far
/// out so the report's dense span cap trips and `item_bits` is `None`.
fn dated_entries(wide: bool) -> impl Strategy<Value = Vec<(ItemId, Cycle)>> {
    let id = if wide { 0u32..200_000 } else { 0u32..300 };
    proptest::collection::vec((id, 1u64..9), 0..24).prop_map(|v| {
        v.into_iter()
            .map(|(x, c)| (ItemId::new(x), Cycle::new(c)))
            .collect()
    })
}

/// A random sorted, deduped readset over the same id universe.
fn readset(wide: bool) -> impl Strategy<Value = Vec<ItemId>> {
    let id = if wide { 0u32..200_000 } else { 0u32..300 };
    proptest::collection::btree_set(id, 0..16)
        .prop_map(|s| s.into_iter().map(ItemId::new).collect())
}

proptest! {
    /// `any_invalidated_set` and `any_stale_set` agree with the galloping
    /// probes for every (report, readset, state) — at item granularity,
    /// at bucket granularity (where the bitmap must abstain), and over
    /// wide id spans (where the bitmap degrades).
    #[test]
    fn set_probes_agree_with_galloping(
        entries in dated_entries(false),
        wide_entries in dated_entries(true),
        set in readset(false),
        wide_set in readset(true),
        state in 0u64..10,
        window in 1u32..4,
        bucketed in proptest::bool::ANY,
    ) {
        let state = Cycle::new(state);
        for (entries, set) in [(&entries, &set), (&wide_entries, &wide_set)] {
            let mut r = InvalidationReport::with_dated(
                Cycle::new(9),
                window,
                entries.iter().copied(),
                Granularity::Item,
                4,
            );
            if bucketed {
                r = r.at_granularity(Granularity::Bucket);
            }
            let blocks = blocks_of(set);
            let words = blocks.as_ref().map(|(b, w)| (*b, w.as_slice()));
            prop_assert_eq!(
                r.any_invalidated_set(set, words),
                r.any_invalidated(set),
                "invalidated: {:?}", set
            );
            prop_assert_eq!(
                r.any_stale_set(set, words, state),
                r.any_stale(set, state),
                "stale at {:?}: {:?}", state, set
            );
        }
    }

    /// `matches_in_set` yields exactly the `(item, first_writer)` pairs
    /// of the galloping `matches_in`, in the same order.
    #[test]
    fn matches_in_set_agrees_with_galloping(
        entries in dated_entries(false),
        wide_entries in dated_entries(true),
        set in readset(false),
        wide_set in readset(true),
    ) {
        for (entries, set) in [(&entries, &set), (&wide_entries, &wide_set)] {
            let aug = AugmentedReport::new(
                Cycle::new(9),
                entries
                    .iter()
                    .map(|&(x, _)| (x, TxnId::new(Cycle::new(9), x.index() % 3))),
            );
            let blocks = blocks_of(set);
            let words = blocks.as_ref().map(|(b, w)| (*b, w.as_slice()));
            let via_words: Vec<(ItemId, TxnId)> = aug.matches_in_set(set, words).collect();
            let via_gallop: Vec<(ItemId, TxnId)> = aug.matches_in(set).collect();
            prop_assert_eq!(via_words, via_gallop, "{:?}", set);
        }
    }
}
