//! The embeddable client API: run read-only transactions against a
//! broadcast you tune into yourself.
//!
//! [`QueryExecutor`](crate::QueryExecutor) simulates a client end to end;
//! `BroadcastSession` is the piece a real application embeds instead. The
//! application owns the radio loop: it hands each cycle's bcast to
//! [`BroadcastSession::on_bcast`], asks where to tune for each read, and
//! delivers what it heard. The session runs the protocol (any method from
//! [`bpush_core::Method`]), keeps the cache coherent, and decides
//! commit/abort.
//!
//! ```text
//! app loop:                      session:
//!   hear cycle start      ──────▶ on_bcast(&bcast)
//!   t = begin()           ◀────── transaction handle
//!   read(t, x)?           ──────▶ Done(value) | Tune{slot} | NextCycle
//!   tune to slot, hear x  ──────▶ deliver(t, x)  → value
//!   commit(t)             ──────▶ readset (consistent!) or abort reason
//! ```
//!
//! The module also owns the read rule every client shares: `hear_cycle`
//! / `miss_cycle` keep protocol and cache in step with the cycles, and
//! `on_air` finds the bucket proving a version current. The executor
//! and the session call them; the [`WireClient`](crate::WireClient)
//! runs its transactions through a session.

use bpush_broadcast::{Bcast, ControlInfo};
use bpush_core::validator::ReadRecord;
use bpush_core::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome, Source,
};
use bpush_types::{Cycle, ItemId, ItemValue, QueryId};

use crate::cache::ClientCache;

/// Hears a cycle: the protocol processes the control segment, and the
/// cache applies the invalidation report and autoprefetches (§4).
pub(crate) fn hear_cycle(
    protocol: &mut dyn ReadOnlyProtocol,
    cache: Option<&mut ClientCache>,
    bcast: &Bcast,
) {
    protocol.on_control(bcast.control());
    if let Some(cache) = cache {
        cache.on_report(bcast.control().invalidation());
        cache.autoprefetch(bcast);
    }
}

/// Misses `cycle` entirely (a disconnection): the protocol and the cache
/// both learn that its report went unheard.
pub(crate) fn miss_cycle(
    protocol: &mut dyn ReadOnlyProtocol,
    cache: Option<&mut ClientCache>,
    cycle: Cycle,
) {
    protocol.on_missed_cycle(cycle);
    if let Some(cache) = cache {
        cache.on_missed_cycle(cycle);
    }
}

/// The slot of `bcast` and the candidate that prove `item` current at
/// database state `state`, for a client listening from slot `position`.
///
/// * A current version no newer than `state` airs at its next
///   repetition at or after `position` (broadcast disks air an item
///   several times per cycle, §7), else at its first one: a slot before
///   `position` means the client must wait for the next bcast.
/// * Otherwise the old-version chain (§3.2) supplies the newest version
///   no newer than `state`.
/// * Without versions on air (a non-multiversion cache), the client only
///   knows what its report stream proves: a current version's validity
///   is clamped to the cache's provable floor (§4).
///
/// `None` when no version on air is provably current at `state` —
/// clamped past it, or behind a retention gap in the chain.
pub(crate) fn on_air(
    bcast: &Bcast,
    item: ItemId,
    state: Cycle,
    position: u64,
    cache: Option<&ClientCache>,
) -> Option<(u64, ReadCandidate)> {
    let record = bcast.current(item)?;
    let (slot, cand) = if record.value().version() <= state {
        let slot = bcast
            .next_slot_of_current(item, position)
            .or_else(|| bcast.slot_of_current(item))?;
        let mut cand = ReadCandidate::from_broadcast(record);
        if let Some(cache) = cache.filter(|c| c.params().mode != CacheMode::Multiversion) {
            cand.valid_from = cache.provable_floor(item).unwrap_or(bcast.cycle());
        }
        (slot, cand)
    } else {
        // the chain runs newest first, so each entry's successor is the
        // entry before it (the current version for the first)
        let chain = bcast.old_versions_of(item);
        let successors = std::iter::once(record.value().version())
            .chain(chain.iter().map(|&(_, value)| value.version()));
        let (&(slot, value), successor) = chain
            .iter()
            .zip(successors)
            .find(|(&(_, value), _)| value.version() <= state)?;
        let cand = ReadCandidate {
            value,
            last_writer_tag: value.writer(),
            valid_from: value.version(),
            valid_until: Some(successor),
            source: Source::BroadcastOld,
        };
        (slot, cand)
    };
    cand.current_at(state).then_some((slot, cand))
}

/// Where the next read of a transaction will come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// bpush-lint: protocol_enum — session read automaton state
pub enum ReadStep {
    /// The read completed from the cache; the value is recorded.
    Done,
    /// Tune to this slot of the current bcast, then call
    /// [`BroadcastSession::deliver`] for the item.
    Tune {
        /// Slot within the current bcast carrying the needed value.
        slot: u64,
    },
    /// The needed bucket has already passed this cycle; retry after the
    /// next [`BroadcastSession::on_bcast`].
    NextCycle,
}

/// Handle to an in-flight read-only transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnHandle(pub(crate) QueryId);

#[derive(Debug)]
struct ActiveTxn {
    id: QueryId,
    reads: Vec<ReadRecord>,
}

/// An embeddable broadcast-push client: protocol + cache, application-
/// driven.
///
/// # Example
///
/// ```
/// use bpush_client::session::{BroadcastSession, ReadStep};
/// use bpush_core::Method;
/// use bpush_server::{BroadcastServer, ServerOptions};
/// use bpush_types::{ItemId, ServerConfig};
///
/// let config = ServerConfig { broadcast_size: 50, update_range: 25,
///     server_read_range: 50, updates_per_cycle: 5,
///     ..ServerConfig::default() };
/// let mut server = BroadcastServer::new(config, ServerOptions::plain(), 1)?;
/// let mut session = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
///
/// let bcast = server.run_cycle();
/// session.on_bcast(&bcast);
/// let txn = session.begin();
/// let step = session.read(txn, ItemId::new(3), &bcast)?;
/// if let ReadStep::Tune { .. } = step {
///     session.deliver(txn, ItemId::new(3), &bcast)?;
/// }
/// let readset = session.commit(txn)?;
/// assert_eq!(readset.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BroadcastSession {
    protocol: Box<dyn ReadOnlyProtocol>,
    cache: Option<ClientCache>,
    now: Option<Cycle>,
    next_id: QueryId,
    active: Vec<ActiveTxn>,
}

impl BroadcastSession {
    /// Creates a session around a protocol and an optional cache. The
    /// cache's [`CacheMode`] should match
    /// [`ReadOnlyProtocol::cache_mode`]; a missing cache is always
    /// acceptable (the protocol then works broadcast-only).
    pub fn new(protocol: Box<dyn ReadOnlyProtocol>, cache: Option<ClientCache>) -> Self {
        if let (Some(cache), mode) = (&cache, protocol.cache_mode()) {
            debug_assert!(
                mode == CacheMode::None || cache.params().mode == mode,
                "cache mode should match the protocol's requirement"
            );
        }
        BroadcastSession {
            protocol,
            cache,
            now: None,
            next_id: QueryId::new(0),
            active: Vec::new(),
        }
    }

    /// The protocol's reporting name.
    pub fn protocol_name(&self) -> &'static str {
        self.protocol.name()
    }

    /// Number of transactions currently in flight.
    pub fn active_transactions(&self) -> usize {
        self.active.len()
    }

    /// Processes the control segment of a freshly heard bcast. Call once
    /// per cycle, before any read of that cycle.
    pub fn on_bcast(&mut self, bcast: &Bcast) {
        hear_cycle(&mut *self.protocol, self.cache.as_mut(), bcast);
        self.now = Some(bcast.cycle());
    }

    /// Tells the session the client missed `cycle` entirely.
    pub fn on_missed_cycle(&mut self, cycle: Cycle) {
        miss_cycle(&mut *self.protocol, self.cache.as_mut(), cycle);
    }

    /// Starts a read-only transaction.
    ///
    /// # Panics
    /// Panics if no bcast has been heard yet ([`BroadcastSession::on_bcast`]).
    pub fn begin(&mut self) -> TxnHandle {
        let now = self.heard();
        let id = self.next_id;
        self.next_id = id.next();
        self.protocol.begin_query(id, now);
        self.active.push(ActiveTxn {
            id,
            reads: Vec::new(),
        });
        TxnHandle(id)
    }

    #[expect(clippy::expect_used, reason = "a stale handle is a caller bug")]
    fn txn_index(&self, handle: TxnHandle) -> usize {
        self.active
            .iter()
            .position(|t| t.id == handle.0)
            .expect("unknown or finished transaction handle")
    }

    /// Attempts to read `item`, given the slot the application is
    /// currently listening at within this bcast. Either completes from
    /// the cache ([`ReadStep::Done`]), tells the application where to
    /// tune, or reports that the needed bucket has already passed this
    /// cycle ([`ReadStep::NextCycle`]: retry after the next
    /// [`BroadcastSession::on_bcast`]).
    ///
    /// Call [`BroadcastSession::read`] for the common
    /// start-of-cycle case (`position = 0`).
    ///
    /// # Errors
    /// Returns the abort reason if the transaction cannot proceed; the
    /// transaction is dropped and its handle becomes invalid.
    ///
    /// # Panics
    /// Panics if the handle is unknown (already committed or aborted).
    pub fn read_at(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        bcast: &Bcast,
        position: u64,
    ) -> Result<ReadStep, AbortReason> {
        let now = bcast.cycle();
        let constraint = self.constraint(handle, item, now)?;
        // 1. cache
        let cached = self
            .cache
            .as_mut()
            .and_then(|c| c.lookup(item, constraint.state));
        // 2. broadcast: where is the value?
        if cached.is_none() && !constraint.cache_only {
            match on_air(bcast, item, constraint.state, position, self.cache.as_ref()) {
                Some((slot, _)) if slot < position => return Ok(ReadStep::NextCycle),
                Some((slot, _)) => return Ok(ReadStep::Tune { slot }),
                None => {}
            }
        }
        // a cache hit completes here; no version at all aborts
        self.apply(handle, item, cached, now)
            .map(|_| ReadStep::Done)
    }

    /// [`BroadcastSession::read_at`] from the beginning of the bcast.
    ///
    /// # Errors
    /// Returns the abort reason if the transaction cannot proceed.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn read(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        bcast: &Bcast,
    ) -> Result<ReadStep, AbortReason> {
        self.read_at(handle, item, bcast, 0)
    }

    /// Delivers the bucket the application tuned to after a
    /// [`ReadStep::Tune`], completing the read.
    ///
    /// # Errors
    /// Returns the abort reason if the protocol rejects the value; the
    /// transaction is dropped.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn deliver(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        bcast: &Bcast,
    ) -> Result<ItemValue, AbortReason> {
        let now = bcast.cycle();
        let state = self.constraint(handle, item, now)?.state;
        let cand = on_air(bcast, item, state, 0, self.cache.as_ref()).map(|(_, c)| c);
        let value = self.apply(handle, item, cand, now)?;
        // demand-cache current values, as a real client would
        if cand.is_some_and(|c| c.source == Source::BroadcastCurrent) {
            if let (Some(cache), Some(rec)) = (&mut self.cache, bcast.current(item)) {
                cache.insert_from_broadcast(rec, now);
            }
        }
        Ok(value)
    }

    /// Commits the transaction, returning its (consistent) readset.
    ///
    /// # Errors
    /// Never fails for the shipped methods — once every read was
    /// accepted, commitment is local — but the signature leaves room for
    /// methods with commit-time certification.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn commit(&mut self, handle: TxnHandle) -> Result<Vec<ReadRecord>, AbortReason> {
        Ok(self.finish(handle))
    }

    /// Abandons the transaction.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub fn abort(&mut self, handle: TxnHandle) {
        self.finish(handle);
    }

    /// The wrapped protocol.
    pub(crate) fn protocol(&self) -> &dyn ReadOnlyProtocol {
        &*self.protocol
    }

    /// The cycle of the last control segment heard, if any.
    pub(crate) fn now(&self) -> Option<Cycle> {
        self.now
    }

    /// The cycle of the last control segment heard.
    ///
    /// # Panics
    /// Panics if none has been heard yet.
    #[expect(clippy::expect_used, reason = "documented panic (see `# Panics`)")]
    pub(crate) fn heard(&self) -> Cycle {
        self.now.expect("hear a bcast before starting transactions")
    }

    /// Hears a bare control segment — a client without a cache or a
    /// [`Bcast`] in hand (the wire client decodes only the segments).
    pub(crate) fn on_control(&mut self, control: &ControlInfo) {
        self.protocol.on_control(control);
        self.now = Some(control.cycle());
    }

    /// The protocol's constraint on `handle` reading `item` at `now`; a
    /// doomed transaction is dropped and its abort reason returned.
    pub(crate) fn constraint(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        now: Cycle,
    ) -> Result<ReadConstraint, AbortReason> {
        let idx = self.txn_index(handle);
        match self.protocol.read_directive(handle.0, item, now) {
            ReadDirective::Read(constraint) => Ok(constraint),
            ReadDirective::Doom(reason) => {
                self.drop_txn(idx);
                Err(reason)
            }
        }
    }

    /// Offers `candidate` to the protocol: an accepted value joins the
    /// readset; a rejected one — or no candidate at all, meaning no
    /// version current at the constraint's state is to be had — drops
    /// the transaction.
    pub(crate) fn apply(
        &mut self,
        handle: TxnHandle,
        item: ItemId,
        candidate: Option<ReadCandidate>,
        now: Cycle,
    ) -> Result<ItemValue, AbortReason> {
        let idx = self.txn_index(handle);
        let Some(cand) = candidate else {
            self.drop_txn(idx);
            return Err(AbortReason::VersionUnavailable);
        };
        match self.protocol.apply_read(handle.0, item, &cand, now) {
            ReadOutcome::Accepted => {
                self.active[idx]
                    .reads
                    .push(ReadRecord::new(item, cand.value));
                Ok(cand.value)
            }
            ReadOutcome::Rejected(reason) => {
                self.drop_txn(idx);
                Err(reason)
            }
        }
    }

    /// Ends the transaction's query at the protocol and returns its
    /// readset.
    ///
    /// # Panics
    /// Panics if the handle is unknown.
    pub(crate) fn finish(&mut self, handle: TxnHandle) -> Vec<ReadRecord> {
        self.drop_txn(self.txn_index(handle))
    }

    fn drop_txn(&mut self, idx: usize) -> Vec<ReadRecord> {
        let txn = self.active.remove(idx);
        self.protocol.finish_query(txn.id);
        txn.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheParams;
    use bpush_core::Method;
    use bpush_server::{BroadcastServer, ServerOptions};
    use bpush_types::ServerConfig;

    fn server() -> BroadcastServer {
        BroadcastServer::new(
            ServerConfig {
                broadcast_size: 40,
                update_range: 20,
                server_read_range: 40,
                updates_per_cycle: 5,
                txns_per_cycle: 5,
                offset: 0,
                ..ServerConfig::default()
            },
            ServerOptions::plain(),
            9,
        )
        .unwrap()
    }

    #[test]
    fn single_cycle_transaction_commits() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let bcast = srv.run_cycle();
        s.on_bcast(&bcast);
        assert_eq!(s.protocol_name(), "inv-only");
        let t = s.begin();
        assert_eq!(s.active_transactions(), 1);
        for i in [1u32, 5, 9] {
            match s.read(t, ItemId::new(i), &bcast).unwrap() {
                ReadStep::Tune { slot } => {
                    assert!(slot < bcast.total_slots());
                    s.deliver(t, ItemId::new(i), &bcast).unwrap();
                }
                other => panic!("expected a tune step, got {other:?}"),
            }
        }
        let reads = s.commit(t).unwrap();
        assert_eq!(reads.len(), 3);
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn invalidation_aborts_across_cycles() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b0 = srv.run_cycle();
        s.on_bcast(&b0);
        let t = s.begin();
        // read every hot item so the next cycle's updates must hit one
        for i in 0..20u32 {
            if let Ok(ReadStep::Tune { .. }) = s.read(t, ItemId::new(i), &b0) {
                s.deliver(t, ItemId::new(i), &b0).unwrap();
            }
        }
        let b1 = srv.run_cycle();
        s.on_bcast(&b1);
        // the transaction is now doomed: 5 updates hit the 20 hot items
        let result = s.read(t, ItemId::new(21), &b1);
        assert_eq!(result, Err(AbortReason::Invalidated));
        assert_eq!(s.active_transactions(), 0, "aborted handle released");
    }

    #[test]
    fn cache_serves_done_steps() {
        let mut srv = server();
        let cache = ClientCache::new(CacheParams {
            mode: CacheMode::Plain,
            current_capacity: 10,
            old_capacity: 0,
            items_per_bucket: 1,
        });
        let mut s = BroadcastSession::new(Method::InvalidationCache.build_protocol(), Some(cache));
        let b0 = srv.run_cycle();
        s.on_bcast(&b0);
        let t = s.begin();
        assert!(matches!(
            s.read(t, ItemId::new(3), &b0).unwrap(),
            ReadStep::Tune { .. }
        ));
        s.deliver(t, ItemId::new(3), &b0).unwrap();
        s.commit(t).unwrap();
        // a second transaction reads the same item straight from cache
        let t2 = s.begin();
        assert_eq!(s.read(t2, ItemId::new(3), &b0).unwrap(), ReadStep::Done);
        let reads = s.commit(t2).unwrap();
        assert_eq!(reads.len(), 1);
    }

    #[test]
    fn interleaved_transactions_are_independent() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::Sgt.build_protocol(), None);
        let b0 = srv.run_cycle();
        s.on_bcast(&b0);
        let t1 = s.begin();
        let t2 = s.begin();
        assert_eq!(s.active_transactions(), 2);
        if let Ok(ReadStep::Tune { .. }) = s.read(t1, ItemId::new(1), &b0) {
            s.deliver(t1, ItemId::new(1), &b0).unwrap();
        }
        if let Ok(ReadStep::Tune { .. }) = s.read(t2, ItemId::new(2), &b0) {
            s.deliver(t2, ItemId::new(2), &b0).unwrap();
        }
        s.abort(t1);
        let reads = s.commit(t2).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(s.active_transactions(), 0);
    }

    #[test]
    fn committed_readsets_validate() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let mut committed = Vec::new();
        for _ in 0..20 {
            let bcast = srv.run_cycle();
            s.on_bcast(&bcast);
            let t = s.begin();
            let mut ok = true;
            for i in [2u32, 7, 11] {
                match s.read(t, ItemId::new(i), &bcast) {
                    Ok(ReadStep::Tune { .. }) => {
                        if s.deliver(t, ItemId::new(i), &bcast).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                committed.push(s.commit(t).unwrap());
            }
        }
        assert!(!committed.is_empty());
        let validator = bpush_core::validator::SerializabilityValidator::new(srv.history());
        for reads in &committed {
            validator.check(reads).unwrap();
        }
    }

    #[test]
    fn read_at_reports_passed_slots() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b = srv.run_cycle();
        s.on_bcast(&b);
        let t = s.begin();
        let slot = b.slot_of_current(ItemId::new(5)).unwrap();
        // listening past the item's slot: the bucket is gone this cycle
        assert_eq!(
            s.read_at(t, ItemId::new(5), &b, slot + 1).unwrap(),
            ReadStep::NextCycle
        );
        // the transaction is still alive and succeeds next cycle
        let b2 = srv.run_cycle();
        s.on_bcast(&b2);
        match s.read_at(t, ItemId::new(5), &b2, 0).unwrap() {
            ReadStep::Tune { .. } => {
                s.deliver(t, ItemId::new(5), &b2).unwrap();
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s.commit(t).unwrap().len(), 1);
    }

    /// Broadcast disks air a hot item several times per cycle (§7): a
    /// read issued after its first repetition tunes to the next one
    /// instead of waiting a cycle.
    #[test]
    fn read_at_tunes_to_a_later_disk_repetition() {
        use bpush_broadcast::organization::DiskSpec;
        use bpush_server::BroadcastMode;
        let disks = [(20, 2), (80, 1)].map(|(items, rel_freq)| DiskSpec { items, rel_freq });
        let disks = ServerOptions {
            mode: BroadcastMode::Disks(disks.to_vec()),
            sgt_info: false,
        };
        let config = ServerConfig {
            broadcast_size: 100,
            update_range: 50,
            server_read_range: 100,
            ..ServerConfig::default()
        };
        let mut srv = BroadcastServer::new(config, disks, 0).unwrap();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b = srv.run_cycle();
        s.on_bcast(&b);
        let item = ItemId::new(0);
        assert_eq!(b.occurrences_of(item), &[0, 60]);
        let t = s.begin();
        assert_eq!(
            s.read_at(t, item, &b, 1).unwrap(),
            ReadStep::Tune { slot: 60 }
        );
        s.deliver(t, item, &b).unwrap();
        assert_eq!(s.commit(t).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown or finished")]
    fn stale_handle_panics() {
        let mut srv = server();
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let b = srv.run_cycle();
        s.on_bcast(&b);
        let t = s.begin();
        s.commit(t).unwrap();
        let _ = s.commit(t);
    }

    #[test]
    #[should_panic(expected = "hear a bcast")]
    fn begin_before_bcast_panics() {
        let mut s = BroadcastSession::new(Method::InvalidationOnly.build_protocol(), None);
        let _ = s.begin();
    }
}
