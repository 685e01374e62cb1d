//! A fully assembled broadcast program for one cycle.

use std::collections::BTreeMap;

use bpush_types::{Cycle, ItemId, ItemValue};

use crate::bucket::{BucketHeader, ItemRecord};
use crate::control::ControlInfo;
use crate::directory::Directory;

/// One cycle's broadcast program ("bcast", §2): the control segment
/// followed by the data segment (and, under the multiversion overflow
/// organization, trailing overflow buckets with old versions).
///
/// A `Bcast` is produced by one of the organizations in
/// [`crate::organization`] and consumed by clients, which query it for
/// *where* (at which slot) an item appears so the simulation can account
/// for tuning latency. Slot 0 is the first control bucket; the data
/// segment starts at [`Bcast::data_start`].
#[derive(Debug, Clone)]
pub struct Bcast {
    cycle: Cycle,
    control: ControlInfo,
    control_slots: u64,
    data_slots: u64,
    overflow_slots: u64,
    /// Current value of every item on air.
    records: BTreeMap<ItemId, ItemRecord>,
    /// Sorted slots at which each item's current version is transmitted
    /// (more than one under the broadcast-disk organization).
    occurrences: BTreeMap<ItemId, Vec<u64>>,
    /// Old versions per item, most recent first, with the slot carrying
    /// each (§3.2). Empty outside multiversion organizations.
    old_versions: BTreeMap<ItemId, Vec<(u64, ItemValue)>>,
    /// The on-air directory, present only when positions shift per cycle
    /// (clustered multiversion organization).
    directory: Option<Directory>,
    /// Slots at which replicated on-air index segments begin ((1, m)
    /// indexing, §2.1); empty when the organization broadcasts no index.
    index_slots: Vec<u64>,
}

impl Bcast {
    /// Assembles a bcast from its parts. Used by the organizations; not
    /// intended for direct construction by applications.
    #[allow(clippy::too_many_arguments, reason = "one argument per bcast field")]
    pub(crate) fn from_parts(
        cycle: Cycle,
        control: ControlInfo,
        control_slots: u64,
        data_slots: u64,
        overflow_slots: u64,
        records: BTreeMap<ItemId, ItemRecord>,
        occurrences: BTreeMap<ItemId, Vec<u64>>,
        old_versions: BTreeMap<ItemId, Vec<(u64, ItemValue)>>,
        directory: Option<Directory>,
    ) -> Self {
        debug_assert!(occurrences
            .values()
            .all(|s| s.windows(2).all(|w| w[0] < w[1])));
        let total = control_slots + data_slots + overflow_slots;
        debug_assert!(
            occurrences
                .values()
                .flatten()
                .all(|&s| s >= control_slots && s < control_slots + data_slots),
            "current versions live in the data segment"
        );
        debug_assert!(
            old_versions.values().flatten().all(|&(s, _)| s < total),
            "old versions must fit the bcast"
        );
        Bcast {
            cycle,
            control,
            control_slots,
            data_slots,
            overflow_slots,
            records,
            occurrences,
            old_versions,
            directory,
            index_slots: Vec::new(),
        }
    }

    /// Attaches the slots of replicated on-air index segments ((1, m)
    /// indexing).
    pub(crate) fn with_index_slots(mut self, slots: Vec<u64>) -> Self {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        self.index_slots = slots;
        self
    }

    /// The cycle this bcast transmits.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The control segment (invalidation report and, for SGT, the
    /// augmented report and graph diff).
    pub fn control(&self) -> &ControlInfo {
        &self.control
    }

    /// This bcast with its control segment replaced by `control` — e.g.
    /// by the report a client decoded off the wire, so that every client
    /// of a shared broadcast hears the decoded bytes. The slot layout is
    /// kept as it is, so `control` must be the same report in another
    /// form, not a different one.
    ///
    /// # Panics
    /// Panics if `control` belongs to a different cycle.
    #[must_use]
    pub fn with_control(mut self, control: ControlInfo) -> Self {
        assert_eq!(
            control.cycle(),
            self.cycle,
            "a control segment must describe its own bcast's cycle"
        );
        self.control = control;
        self
    }

    /// Slots occupied by the control segment (including the on-air
    /// directory if the organization needs one).
    pub fn control_slots(&self) -> u64 {
        self.control_slots
    }

    /// First slot of the data segment.
    pub fn data_start(&self) -> u64 {
        self.control_slots
    }

    /// Slots occupied by the data segment.
    pub fn data_slots(&self) -> u64 {
        self.data_slots
    }

    /// Slots occupied by overflow buckets (old versions), if any.
    pub fn overflow_slots(&self) -> u64 {
        self.overflow_slots
    }

    /// Total length of this bcast in slots; the next bcast starts this
    /// many slots after this one began.
    pub fn total_slots(&self) -> u64 {
        self.control_slots + self.data_slots + self.overflow_slots
    }

    /// The number of distinct items on air.
    pub fn item_count(&self) -> usize {
        self.records.len()
    }

    /// The current-version record of `item`, if the item is on air.
    pub fn current(&self, item: ItemId) -> Option<&ItemRecord> {
        self.records.get(&item)
    }

    /// The first slot at which `item`'s current version is transmitted.
    pub fn slot_of_current(&self, item: ItemId) -> Option<u64> {
        self.occurrences.get(&item).and_then(|s| s.first().copied())
    }

    /// The first slot `>= not_before` at which `item`'s current version is
    /// transmitted in *this* bcast; `None` if it has already passed (the
    /// client must wait for the next bcast).
    pub fn next_slot_of_current(&self, item: ItemId, not_before: u64) -> Option<u64> {
        let slots = self.occurrences.get(&item)?;
        let idx = slots.partition_point(|&s| s < not_before);
        slots.get(idx).copied()
    }

    /// All slots at which `item`'s current version appears (one for flat
    /// organizations, several under broadcast disks).
    pub fn occurrences_of(&self, item: ItemId) -> &[u64] {
        self.occurrences.get(&item).map_or(&[], Vec::as_slice)
    }

    /// The old versions of `item` on air, most recent first, each with the
    /// slot that carries it.
    pub fn old_versions_of(&self, item: ItemId) -> &[(u64, ItemValue)] {
        self.old_versions.get(&item).map_or(&[], Vec::as_slice)
    }

    /// The multiversion read rule of §3.2: the value of `item` with the
    /// largest version `<= bound`, searching the current version first and
    /// then the old-version chain. Returns the slot carrying the value.
    pub fn best_version_at_most(&self, item: ItemId, bound: Cycle) -> Option<(u64, ItemValue)> {
        let rec = self.records.get(&item)?;
        if rec.value().version() <= bound {
            return self.slot_of_current(item).map(|s| (s, rec.value()));
        }
        self.old_versions_of(item)
            .iter()
            .find(|(_, v)| v.version() <= bound)
            .copied()
    }

    /// The on-air directory, present only under shifting-position
    /// organizations.
    pub fn directory(&self) -> Option<&Directory> {
        self.directory.as_ref()
    }

    /// Slots of replicated on-air index segments, if the organization
    /// broadcasts any ((1, m) indexing, §2.1).
    pub fn index_slots(&self) -> &[u64] {
        &self.index_slots
    }

    /// The first index segment at or after `not_before` in this bcast,
    /// for a client without a locally stored directory.
    pub fn next_index_slot(&self, not_before: u64) -> Option<u64> {
        let idx = self.index_slots.partition_point(|&s| s < not_before);
        self.index_slots.get(idx).copied()
    }

    /// The header a client would find at `slot` (§2.1 self-description).
    ///
    /// # Panics
    /// Panics if `slot` is outside this bcast.
    pub fn header_at(&self, slot: u64) -> BucketHeader {
        BucketHeader::new(self.cycle, slot, self.total_slots())
    }

    /// Iterates over all current-version records in unspecified order.
    pub fn records(&self) -> impl Iterator<Item = &ItemRecord> {
        self.records.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Flat;
    use bpush_types::TxnId;

    fn simple_bcast() -> Bcast {
        let records: Vec<ItemRecord> = (0..8)
            .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
            .collect();
        Flat::new(1).assemble(
            Cycle::ZERO,
            ControlInfo::empty(Cycle::ZERO),
            records,
            Vec::new(),
        )
    }

    #[test]
    fn flat_slots_are_sequential() {
        let b = simple_bcast();
        assert_eq!(b.control_slots(), 0);
        assert_eq!(b.data_slots(), 8);
        assert_eq!(b.overflow_slots(), 0);
        assert_eq!(b.total_slots(), 8);
        assert_eq!(b.item_count(), 8);
        for i in 0..8u32 {
            assert_eq!(b.slot_of_current(ItemId::new(i)), Some(u64::from(i)));
        }
        assert_eq!(b.slot_of_current(ItemId::new(9)), None);
    }

    #[test]
    fn next_slot_respects_not_before() {
        let b = simple_bcast();
        let x = ItemId::new(3);
        assert_eq!(b.next_slot_of_current(x, 0), Some(3));
        assert_eq!(b.next_slot_of_current(x, 3), Some(3));
        assert_eq!(b.next_slot_of_current(x, 4), None, "already passed");
        assert_eq!(b.occurrences_of(x), &[3]);
    }

    #[test]
    fn best_version_uses_current_when_old_enough() {
        let mut records = vec![ItemRecord::new(
            ItemId::new(0),
            ItemValue::written_by(TxnId::new(Cycle::new(4), 0)), // version 5
            None,
        )];
        records.push(ItemRecord::new(ItemId::new(1), ItemValue::initial(), None));
        let old = vec![(
            ItemId::new(0),
            vec![ItemValue::initial()], // version 0
        )];
        let b = crate::organization::MultiversionOverflow::new(1).assemble(
            Cycle::new(5),
            ControlInfo::empty(Cycle::new(5)),
            records,
            old,
        );
        // bound 5: current version (5) qualifies
        let (slot, v) = b
            .best_version_at_most(ItemId::new(0), Cycle::new(5))
            .unwrap();
        assert_eq!(v.version(), Cycle::new(5));
        assert!(slot < b.data_start() + b.data_slots());
        // bound 4: must fall back to the old version in overflow
        let (slot, v) = b
            .best_version_at_most(ItemId::new(0), Cycle::new(4))
            .unwrap();
        assert_eq!(v.version(), Cycle::ZERO);
        assert!(
            slot >= b.data_start() + b.data_slots(),
            "old versions at the end"
        );
        // unknown item
        assert!(b
            .best_version_at_most(ItemId::new(9), Cycle::new(9))
            .is_none());
    }

    #[test]
    fn header_self_description() {
        let b = simple_bcast();
        let h = b.header_at(5);
        assert_eq!(h.offset(), 5);
        assert_eq!(h.slots_to_next_bcast(), 3);
        assert_eq!(h.cycle(), Cycle::ZERO);
    }

    #[test]
    fn with_control_replaces_only_the_report() {
        let b = simple_bcast();
        let report = crate::InvalidationReport::new(
            Cycle::ZERO,
            1,
            [ItemId::new(2)],
            bpush_types::Granularity::Item,
            1,
        );
        let ctrl = ControlInfo::new(Cycle::ZERO, report, None, None);
        let b = b.with_control(ctrl.clone());
        assert_eq!(b.control(), &ctrl);
        assert_eq!(b.total_slots(), 8, "the data segment is untouched");
        assert_eq!(b.slot_of_current(ItemId::new(2)), Some(2));
    }

    #[test]
    #[should_panic(expected = "its own bcast's cycle")]
    fn with_control_rejects_another_cycles_report() {
        let _ = simple_bcast().with_control(ControlInfo::empty(Cycle::new(1)));
    }

    #[test]
    #[should_panic(expected = "outside its bcast")]
    fn header_out_of_range() {
        let _ = simple_bcast().header_at(8);
    }
}
