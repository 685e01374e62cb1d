//! Strongly-typed identifiers used throughout the workspace.
//!
//! Every quantity that is conceptually an identifier or a discrete clock is
//! wrapped in a newtype so that e.g. a broadcast [`Cycle`] can never be
//! confused with an [`ItemId`] or a time [`Slot`].

use std::fmt;

/// Identifier of a data item (a database record, addressed by its search
/// key as in §2.1 of the paper).
///
/// Items are dense: a database of size `D` uses ids `0..D`.
///
/// # Example
/// ```
/// use bpush_types::ItemId;
/// let x = ItemId::new(3);
/// assert_eq!(x.index(), 3);
/// assert_eq!(format!("{x}"), "item#3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(u32);

impl ItemId {
    /// Wraps a raw item index.
    pub const fn new(index: u32) -> Self {
        ItemId(index)
    }

    /// The raw dense index of this item (`0..D`).
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Index as `usize`, convenient for slice addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

impl From<u32> for ItemId {
    fn from(index: u32) -> Self {
        ItemId(index)
    }
}

/// Identifier of a bucket, the smallest logical unit of the broadcast
/// (the disk-block analog of §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketId(u32);

impl BucketId {
    /// Wraps a raw bucket index.
    pub const fn new(index: u32) -> Self {
        BucketId(index)
    }

    /// The raw dense index of this bucket within a bcast.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BucketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bucket#{}", self.0)
    }
}

impl From<u32> for BucketId {
    fn from(index: u32) -> Self {
        BucketId(index)
    }
}

/// A broadcast cycle number ("bcycle"): one full period of the broadcast.
///
/// Cycle `n` carries the database state produced by all server
/// transactions committed before the beginning of cycle `n` (§2.2).
/// Cycles start at zero and increase monotonically; they double as version
/// numbers for item values (§3.2).
///
/// # Example
/// ```
/// use bpush_types::Cycle;
/// let c = Cycle::new(5);
/// assert_eq!(c.next(), Cycle::new(6));
/// assert_eq!(c.distance_from(Cycle::new(2)), 3);
/// assert_eq!(Cycle::new(2).checked_sub(5), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The first broadcast cycle.
    pub const ZERO: Cycle = Cycle(0);

    /// Wraps a raw cycle number.
    pub const fn new(n: u64) -> Self {
        Cycle(n)
    }

    /// The raw cycle number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// The cycle immediately after this one.
    #[must_use]
    pub const fn next(self) -> Cycle {
        Cycle(self.0.saturating_add(1))
    }

    /// The cycle immediately before this one.
    ///
    /// # Panics
    /// Panics if `self` is [`Cycle::ZERO`].
    #[must_use]
    #[expect(clippy::expect_used, reason = "documented panic (see `# Panics`)")]
    pub fn prev(self) -> Cycle {
        Cycle(
            self.0
                .checked_sub(1)
                .expect("cycle zero has no predecessor"),
        )
    }

    /// Number of cycles elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    #[expect(clippy::expect_used, reason = "documented panic (see `# Panics`)")]
    pub fn distance_from(self, earlier: Cycle) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("`earlier` must not be after `self`")
    }

    /// `self - n` cycles, or `None` on underflow.
    pub fn checked_sub(self, n: u64) -> Option<Cycle> {
        self.0.checked_sub(n).map(Cycle)
    }

    /// `self + n` cycles.
    #[must_use]
    pub const fn plus(self, n: u64) -> Cycle {
        Cycle(self.0.saturating_add(n))
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle#{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(n: u64) -> Self {
        Cycle(n)
    }
}

/// Identifier of a server (update) transaction.
///
/// Following §3.3 of the paper, transaction identifiers are unique within a
/// broadcast cycle; a full identifier is the pair *(commit cycle, sequence
/// within cycle)*. Because the server executes transactions of a cycle in a
/// strict serial order, `TxnId`'s `Ord` is exactly the server's
/// serialization order, which the serializability validator relies on.
///
/// # Example
/// ```
/// use bpush_types::{Cycle, TxnId};
/// let a = TxnId::new(Cycle::new(3), 0);
/// let b = TxnId::new(Cycle::new(3), 1);
/// let c = TxnId::new(Cycle::new(4), 0);
/// assert!(a < b && b < c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    cycle: Cycle,
    seq: u32,
}

impl TxnId {
    /// Creates a transaction id committed during `cycle` with in-cycle
    /// sequence number `seq`.
    pub const fn new(cycle: Cycle, seq: u32) -> Self {
        TxnId { cycle, seq }
    }

    /// The broadcast cycle during which this transaction committed.
    pub const fn cycle(self) -> Cycle {
        self.cycle
    }

    /// The serial position of this transaction within its commit cycle.
    pub const fn seq(self) -> u32 {
        self.seq
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.cycle.number(), self.seq)
    }
}

/// Identifier of a simulated client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(u32);

impl ClientId {
    /// Wraps a raw client index.
    pub const fn new(index: u32) -> Self {
        ClientId(index)
    }

    /// The raw client index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// Identifier of a client read-only transaction (query), unique within a
/// client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(u64);

impl QueryId {
    /// Wraps a raw query sequence number.
    pub const fn new(n: u64) -> Self {
        QueryId(n)
    }

    /// The raw query sequence number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// The next query id issued by the same client.
    #[must_use]
    pub const fn next(self) -> QueryId {
        QueryId(self.0.saturating_add(1))
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// A discrete point on the broadcast channel's timeline, measured in
/// bucket-transmission units since the start of the simulation.
///
/// One slot is the time it takes to broadcast one bucket; all latency
/// bookkeeping is done in slots and reported in cycles.
///
/// # Example
/// ```
/// use bpush_types::Slot;
/// let s = Slot::new(10);
/// assert_eq!(s.plus(5).value(), 15);
/// assert_eq!(s.cycles_at(4), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(u64);

impl Slot {
    /// The start of the timeline.
    pub const ZERO: Slot = Slot(0);

    /// Wraps a raw slot count.
    pub const fn new(n: u64) -> Self {
        Slot(n)
    }

    /// The raw slot count.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// `self + n` slots.
    #[must_use]
    pub const fn plus(self, n: u64) -> Slot {
        Slot(self.0.saturating_add(n))
    }

    /// Slots elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    #[expect(clippy::expect_used, reason = "documented panic (see `# Panics`)")]
    pub fn since(self, earlier: Slot) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("`earlier` must not be after `self`")
    }

    /// This instant expressed in cycles, given a cycle length in slots.
    ///
    /// # Panics
    /// Panics if `cycle_len` is zero.
    pub fn cycles_at(self, cycle_len: u64) -> f64 {
        assert!(cycle_len > 0, "cycle length must be positive");
        self.0 as f64 / cycle_len as f64
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_roundtrip_and_display() {
        let x = ItemId::new(17);
        assert_eq!(x.index(), 17);
        assert_eq!(x.as_usize(), 17);
        assert_eq!(x, ItemId::from(17));
        assert_eq!(x.to_string(), "item#17");
    }

    #[test]
    fn bucket_id_roundtrip() {
        let b = BucketId::new(4);
        assert_eq!(b.index(), 4);
        assert_eq!(b.as_usize(), 4);
        assert_eq!(BucketId::from(4), b);
        assert_eq!(b.to_string(), "bucket#4");
    }

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle::new(10);
        assert_eq!(c.next(), Cycle::new(11));
        assert_eq!(c.prev(), Cycle::new(9));
        assert_eq!(c.plus(5), Cycle::new(15));
        assert_eq!(c.distance_from(Cycle::new(4)), 6);
        assert_eq!(c.checked_sub(10), Some(Cycle::ZERO));
        assert_eq!(c.checked_sub(11), None);
    }

    #[test]
    #[should_panic(expected = "no predecessor")]
    fn cycle_zero_has_no_prev() {
        let _ = Cycle::ZERO.prev();
    }

    #[test]
    #[should_panic(expected = "must not be after")]
    fn cycle_distance_underflow_panics() {
        let _ = Cycle::new(3).distance_from(Cycle::new(4));
    }

    #[test]
    fn txn_id_orders_by_cycle_then_seq() {
        let mut v = vec![
            TxnId::new(Cycle::new(2), 1),
            TxnId::new(Cycle::new(1), 9),
            TxnId::new(Cycle::new(2), 0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                TxnId::new(Cycle::new(1), 9),
                TxnId::new(Cycle::new(2), 0),
                TxnId::new(Cycle::new(2), 1),
            ]
        );
        assert_eq!(v[0].to_string(), "T1.9");
        assert_eq!(v[0].cycle(), Cycle::new(1));
        assert_eq!(v[0].seq(), 9);
    }

    #[test]
    fn slot_arithmetic_and_cycle_conversion() {
        let s = Slot::new(12);
        assert_eq!(s.plus(3).value(), 15);
        assert_eq!(s.since(Slot::new(2)), 10);
        assert!((s.cycles_at(8) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cycle length must be positive")]
    fn slot_cycles_at_zero_len_panics() {
        let _ = Slot::new(1).cycles_at(0);
    }

    #[test]
    fn query_id_increments() {
        let q = QueryId::new(7);
        assert_eq!(q.next().number(), 8);
        assert_eq!(q.to_string(), "Q7");
    }

    /// Tick arithmetic saturates at the top of the counter instead of
    /// overflowing (L15 discipline); everywhere below the boundary the
    /// behavior is the plain increment the protocol always had.
    #[test]
    fn tick_arithmetic_saturates_at_the_counter_top() {
        assert_eq!(Cycle::new(u64::MAX).next(), Cycle::new(u64::MAX));
        assert_eq!(Cycle::new(u64::MAX - 1).next(), Cycle::new(u64::MAX));
        assert_eq!(Cycle::new(u64::MAX).plus(5), Cycle::new(u64::MAX));
        assert_eq!(Cycle::new(7).plus(u64::MAX), Cycle::new(u64::MAX));
        assert_eq!(QueryId::new(u64::MAX).next(), QueryId::new(u64::MAX));
        assert_eq!(Slot::new(u64::MAX).plus(2), Slot::new(u64::MAX));
        // Below the boundary nothing changed.
        assert_eq!(Cycle::new(41).next(), Cycle::new(42));
        assert_eq!(Cycle::new(40).plus(2), Cycle::new(42));
        assert_eq!(QueryId::new(41).next(), QueryId::new(42));
        assert_eq!(Slot::new(40).plus(2), Slot::new(42));
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ItemId>();
        assert_send_sync::<BucketId>();
        assert_send_sync::<Cycle>();
        assert_send_sync::<TxnId>();
        assert_send_sync::<ClientId>();
        assert_send_sync::<QueryId>();
        assert_send_sync::<Slot>();
    }
}
