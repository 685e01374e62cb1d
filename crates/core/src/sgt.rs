//! Serialization-graph testing at the client (§3.3).

use std::collections::BTreeMap;
use std::fmt;

use bpush_broadcast::ControlInfo;
use bpush_sgraph::{Node, SerializationGraph};
use bpush_types::{Cycle, ItemId, QueryId};

use crate::batch::CohortScreen;
use crate::protocol::{
    AbortReason, CacheMode, ReadCandidate, ReadConstraint, ReadDirective, ReadOnlyProtocol,
    ReadOutcome,
};
use crate::readset::ReadSet;

/// Configuration of the SGT method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SgtConfig {
    /// Use the client cache for reads (the "SGT with caching" curve of
    /// Figure 5; cached entries carry the last-writer tag, §4.1).
    pub use_cache: bool,
    /// The §5.2.2 disconnection enhancement: items carry version numbers,
    /// and after a gap a query only accepts reads of values written
    /// before the gap — which provably keeps cycle detection complete
    /// without the missed control information.
    pub versioned_items: bool,
}

#[derive(Debug)]
struct SgtState {
    readset: ReadSet,
    /// `c_o`: commit cycle of the first transaction that overwrote an
    /// item this query read; pruning keeps subgraphs from here on.
    c_o: Option<Cycle>,
    /// With `versioned_items`, the version bound imposed by gaps: reads
    /// of values with a larger version cannot be certified.
    version_bound: Option<Cycle>,
    doomed: Option<AbortReason>,
}

/// The serialization-graph testing method (§3.3).
///
/// The client maintains a local copy of the server's conflict
/// serialization graph, restricted to recent cycles (Lemma 1), extended
/// with its own active queries. At each cycle it integrates the broadcast
/// graph difference and adds a precedence edge `R → T_f(x)` for every
/// readset item `x` that the augmented invalidation report names
/// (Claim 2: one edge to the *first* writer suffices). A read of a value
/// last written by `T_l` is accepted iff the dependency edge `T_l → R`
/// closes no cycle (Claim 3: one edge from the *last* writer suffices).
///
/// Committed queries observe a database state produced by a serializable
/// execution of a *subset* of the transactions committed during their
/// lifetime — between the invalidation-only method's most-current view
/// and the multiversion method's oldest view (Table 1).
pub struct Sgt {
    config: SgtConfig,
    graph: SerializationGraph,
    queries: BTreeMap<QueryId, SgtState>,
    last_heard: Option<Cycle>,
    /// Union bitmap over everything any active query has read: one
    /// word-AND pass skips the per-query report loops on
    /// report-disjoint cycles.
    screen: CohortScreen,
}

/// Renders exactly like the pre-screen derived form: the screen is
/// derived validation state, and protocol renderings feed mc state
/// hashes, which must not change with the representation.
impl fmt::Debug for Sgt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sgt")
            .field("config", &self.config)
            .field("graph", &self.graph)
            .field("queries", &self.queries)
            .field("last_heard", &self.last_heard)
            .finish()
    }
}

impl Sgt {
    /// Creates the method with the given configuration.
    pub fn new(config: SgtConfig) -> Self {
        Sgt {
            config,
            graph: SerializationGraph::new(),
            queries: BTreeMap::new(),
            last_heard: None,
            screen: CohortScreen::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> SgtConfig {
        self.config
    }

    /// Size of the locally retained graph (nodes, edges) — the space
    /// overhead Table 1 calls "considerable".
    pub fn graph_size(&self) -> (usize, usize) {
        (self.graph.node_count(), self.graph.edge_count())
    }

    /// Lemma-1 pruning: drop all server subgraphs older than the earliest
    /// `c_o` of any active query, or everything if no query has been
    /// invalidated ("if no items are updated, there is no space or
    /// processing overhead at the client").
    fn prune(&mut self) {
        if self.queries.is_empty() {
            self.graph.clear();
            return;
        }
        let min_co = self
            .queries
            .values()
            .filter(|q| q.doomed.is_none())
            .filter_map(|q| q.c_o)
            .min();
        match min_co {
            Some(bound) => self.graph.prune_before(bound),
            None => {
                // No invalidated query: queries may still hold dependency
                // edges T_l -> R, but with no precedence edge R -> T_f no
                // cycle through R is possible yet; dropping server-only
                // state is safe because future cycles only need subgraphs
                // from the (future) first-invalidation cycle onward.
                let heard = self.last_heard;
                if let Some(h) = heard {
                    self.graph.prune_before(h);
                }
            }
        }
    }
}

impl ReadOnlyProtocol for Sgt {
    fn name(&self) -> &'static str {
        if self.config.use_cache {
            "sgt+cache"
        } else {
            "sgt"
        }
    }

    fn cache_mode(&self) -> CacheMode {
        if self.config.use_cache {
            CacheMode::Plain
        } else {
            CacheMode::None
        }
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let n = ctrl.cycle();
        // 1. Integrate the server graph difference (commits of cycle n−1).
        if let Some(diff) = ctrl.graph_diff() {
            self.graph.apply_diff(diff);
        }
        // 2. Precedence edges for invalidated readset items, to the first
        //    writer named by the augmented report. Only items in the
        //    augmented report represent *new* information (re-reports in
        //    windowed invalidation lists have no first-writer entry and
        //    were processed when first announced).
        // Batch fast path: when the cohort's union bitmap is disjoint
        // from the report, no query can match and the per-query loops
        // are skipped wholesale.
        if let Some(aug) = ctrl.augmented() {
            if !self.screen.is_disjoint_from_augmented(aug) {
                for (q, qs) in self.queries.iter_mut() {
                    if qs.doomed.is_some() {
                        continue;
                    }
                    for (_, t_f) in
                        aug.matches_in_set(qs.readset.as_slice(), qs.readset.word_blocks())
                    {
                        self.graph.add_edge(Node::Query(*q), Node::Txn(t_f));
                        let co = qs.c_o.get_or_insert(t_f.cycle());
                        *co = (*co).min(t_f.cycle());
                    }
                }
            }
        } else if !ctrl.invalidation().is_empty()
            && !self.screen.is_disjoint_from(ctrl.invalidation())
        {
            // The server is not broadcasting SGT information; without
            // first-writer data, invalidated queries cannot be certified.
            for qs in self.queries.values_mut() {
                if qs.doomed.is_none()
                    && ctrl
                        .invalidation()
                        .any_invalidated_set(qs.readset.as_slice(), qs.readset.word_blocks())
                {
                    qs.doomed = Some(AbortReason::Invalidated);
                }
            }
        }
        self.last_heard = Some(n);
        // 3. Space optimization.
        self.prune();
    }

    fn on_missed_cycle(&mut self, cycle: Cycle) {
        for qs in self.queries.values_mut() {
            if qs.doomed.is_some() {
                continue;
            }
            if self.config.versioned_items {
                // Sound recovery: restrict future reads to values written
                // before the gap. Values with version <= last_heard were
                // fully covered by control information already processed.
                let bound = self.last_heard.unwrap_or(Cycle::ZERO);
                let vb = qs.version_bound.get_or_insert(bound);
                *vb = (*vb).min(bound);
            } else {
                qs.doomed = Some(AbortReason::Disconnected);
            }
        }
        let _ = cycle;
    }

    fn begin_query(&mut self, q: QueryId, _now: Cycle) {
        let prev = self.queries.insert(
            q,
            SgtState {
                readset: ReadSet::new(),
                c_o: None,
                version_bound: None,
                doomed: None,
            },
        );
        assert!(prev.is_none(), "query ids must not be reused");
    }

    fn read_directive(&self, q: QueryId, _item: ItemId, now: Cycle) -> ReadDirective {
        let qs = &self.queries[&q];
        if let Some(reason) = qs.doomed {
            return ReadDirective::Doom(reason);
        }
        ReadDirective::Read(ReadConstraint {
            state: now,
            cache_only: false,
        })
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        _now: Cycle,
    ) -> ReadOutcome {
        #[expect(clippy::expect_used, reason = "reads only arrive for begun queries")]
        let qs = self.queries.get_mut(&q).expect("unknown query");
        if let Some(reason) = qs.doomed {
            return ReadOutcome::Rejected(reason);
        }
        if !candidate.current_at(_now) {
            // SGT reads current values only (§3.3); a non-current
            // candidate is an executor bug, not a protocol decision.
            let reason = AbortReason::VersionUnavailable;
            qs.doomed = Some(reason);
            return ReadOutcome::Rejected(reason);
        }
        if let Some(bound) = qs.version_bound {
            if candidate.value.version() > bound {
                let reason = AbortReason::Disconnected;
                qs.doomed = Some(reason);
                return ReadOutcome::Rejected(reason);
            }
        }
        // The dependency edge comes from the transmitted last-writer tag.
        let t_l = candidate
            .last_writer_tag
            .or_else(|| candidate.value.writer());
        match t_l {
            None => {
                // Initial-load value: no writer, no edge, always safe.
                qs.readset.insert(item);
                self.screen.note_read(item);
                ReadOutcome::Accepted
            }
            Some(t_l) => {
                if self.graph.would_close_cycle(Node::Txn(t_l), Node::Query(q)) {
                    let reason = AbortReason::CycleDetected;
                    qs.doomed = Some(reason);
                    ReadOutcome::Rejected(reason)
                } else {
                    self.graph.add_edge(Node::Txn(t_l), Node::Query(q));
                    qs.readset.insert(item);
                    self.screen.note_read(item);
                    ReadOutcome::Accepted
                }
            }
        }
    }

    fn finish_query(&mut self, q: QueryId) {
        self.queries.remove(&q);
        self.graph.remove_query(q);
        self.prune();
        if self.queries.is_empty() {
            self.screen.clear();
        }
    }

    fn space_metrics(&self) -> Option<(usize, usize)> {
        Some(self.graph_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Source;
    use bpush_broadcast::{AugmentedReport, InvalidationReport};
    use bpush_sgraph::GraphDiff;
    use bpush_types::{Granularity, ItemValue, TxnId};

    fn txn(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    fn candidate_from(writer: Option<TxnId>) -> ReadCandidate {
        let value = match writer {
            Some(t) => ItemValue::written_by(t),
            None => ItemValue::initial(),
        };
        ReadCandidate {
            value,
            last_writer_tag: writer,
            valid_from: value.version(),
            valid_until: None,
            source: Source::BroadcastCurrent,
        }
    }

    /// Control info for cycle `n`: invalidations with first writers, plus
    /// a graph diff of the previous cycle's commits.
    fn ctrl(
        n: u64,
        invalidated: &[(u32, TxnId)],
        committed: &[TxnId],
        edges: &[(TxnId, TxnId)],
    ) -> ControlInfo {
        let cycle = Cycle::new(n);
        let prev = cycle.prev();
        ControlInfo::new(
            cycle,
            InvalidationReport::new(
                cycle,
                1,
                invalidated.iter().map(|&(i, _)| ItemId::new(i)),
                Granularity::Item,
                1,
            ),
            Some(AugmentedReport::new(
                prev,
                invalidated.iter().map(|&(i, t)| (ItemId::new(i), t)),
            )),
            Some(GraphDiff::new(prev, committed.to_vec(), edges.to_vec())),
        )
    }

    #[test]
    fn paper_figure3_cycle_is_detected() {
        // R reads x at cycle 1 (written by T0.0). During cycle 1, T1.0
        // overwrites x. During cycle 2, T2.0 reads something T1.0 wrote
        // (conflict edge T1.0 -> T2.0) and writes y. At cycle 3, R tries
        // to read y (written by T2.0): cycle R -> T1.0 -> T2.0 -> R.
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(7),
                &candidate_from(Some(txn(0, 0))),
                Cycle::new(1)
            ),
            ReadOutcome::Accepted
        );
        // cycle 2's control: x (item 7) invalidated, first writer T1.0
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        // cycle 3's control: T2.0 committed, conflicting with T1.0
        p.on_control(&ctrl(3, &[], &[txn(2, 0)], &[(txn(1, 0), txn(2, 0))]));
        // reading y from T2.0 must now be rejected
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(9),
                &candidate_from(Some(txn(2, 0))),
                Cycle::new(3)
            ),
            ReadOutcome::Rejected(AbortReason::CycleDetected)
        );
        assert_eq!(
            p.read_directive(q, ItemId::new(9), Cycle::new(3)),
            ReadDirective::Doom(AbortReason::CycleDetected)
        );
    }

    #[test]
    fn invalidation_without_dependent_read_commits() {
        // Unlike invalidation-only, an overwrite alone never dooms the
        // query — only a cycle does.
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        // reading an item whose writer is unrelated to T1.0 is fine
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(8),
                &candidate_from(Some(txn(0, 1))),
                Cycle::new(2)
            ),
            ReadOutcome::Accepted
        );
        // reading an initial-load value is always fine
        assert_eq!(
            p.apply_read(q, ItemId::new(9), &candidate_from(None), Cycle::new(2)),
            ReadOutcome::Accepted
        );
    }

    #[test]
    fn direct_read_from_overwriter_is_rejected() {
        // R -> T_f and then a read from T_f itself: cycle of length 2.
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(8),
                &candidate_from(Some(txn(1, 0))),
                Cycle::new(2)
            ),
            ReadOutcome::Rejected(AbortReason::CycleDetected)
        );
    }

    #[test]
    fn pruning_clears_graph_when_no_invalidation() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        // lots of unrelated server activity
        for n in 2..10 {
            p.on_control(&ctrl(
                n,
                &[],
                &[txn(n - 1, 0), txn(n - 1, 1)],
                &[(txn(n - 1, 0), txn(n - 1, 1))],
            ));
        }
        let (nodes, _) = p.graph_size();
        // only the most recent cycle's subgraph plus query/edge endpoints
        // may survive; far fewer than the 16 committed transactions
        assert!(
            nodes <= 6,
            "pruning must bound the graph, got {nodes} nodes"
        );
    }

    #[test]
    fn pruning_keeps_window_from_first_invalidation() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_control(&ctrl(2, &[(7, txn(1, 0))], &[txn(1, 0)], &[]));
        for n in 3..8 {
            p.on_control(&ctrl(
                n,
                &[],
                &[txn(n - 1, 0)],
                &[(txn(n - 2, 0), txn(n - 1, 0))],
            ));
        }
        // the chain from T1.0 (cycle c_o = 1) must be fully retained:
        // reading from the end of the chain must still detect the cycle
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(9),
                &candidate_from(Some(txn(6, 0))),
                Cycle::new(7)
            ),
            ReadOutcome::Rejected(AbortReason::CycleDetected)
        );
    }

    #[test]
    fn gap_dooms_unversioned_queries() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_missed_cycle(Cycle::new(2));
        assert_eq!(
            p.read_directive(q, ItemId::new(8), Cycle::new(3)),
            ReadDirective::Doom(AbortReason::Disconnected)
        );
    }

    #[test]
    fn versioned_items_survive_gaps_with_old_reads() {
        let mut p = Sgt::new(SgtConfig {
            versioned_items: true,
            ..SgtConfig::default()
        });
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.on_control(&ctrl(1, &[], &[txn(0, 0)], &[]));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.on_missed_cycle(Cycle::new(2));
        p.on_control(&ctrl(3, &[], &[txn(2, 0)], &[]));
        // a value written before the gap (version <= 1) is accepted
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(8),
                &candidate_from(Some(txn(0, 1))),
                Cycle::new(3)
            ),
            ReadOutcome::Accepted
        );
        // a value written during/after the gap is not certifiable
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(9),
                &candidate_from(Some(txn(2, 0))),
                Cycle::new(3)
            ),
            ReadOutcome::Rejected(AbortReason::Disconnected)
        );
    }

    #[test]
    fn missing_server_sgt_info_falls_back_to_invalidation() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        assert_eq!(
            p.apply_read(
                q,
                ItemId::new(7),
                &candidate_from(Some(txn(0, 0))),
                Cycle::new(1)
            ),
            ReadOutcome::Accepted
        );
        // a bare invalidation report without augmented info
        let bare = ControlInfo::new(
            Cycle::new(2),
            InvalidationReport::new(Cycle::new(2), 1, [ItemId::new(7)], Granularity::Item, 1),
            None,
            None,
        );
        p.on_control(&bare);
        assert_eq!(
            p.read_directive(q, ItemId::new(8), Cycle::new(2)),
            ReadDirective::Doom(AbortReason::Invalidated)
        );
    }

    #[test]
    fn names_and_cache_modes() {
        assert_eq!(Sgt::new(SgtConfig::default()).name(), "sgt");
        assert_eq!(Sgt::new(SgtConfig::default()).cache_mode(), CacheMode::None);
        let cached = Sgt::new(SgtConfig {
            use_cache: true,
            ..Default::default()
        });
        assert_eq!(cached.name(), "sgt+cache");
        assert_eq!(cached.cache_mode(), CacheMode::Plain);
        assert!(cached.config().use_cache);
    }

    #[test]
    fn finish_query_removes_graph_node() {
        let mut p = Sgt::new(SgtConfig::default());
        let q = QueryId::new(0);
        p.begin_query(q, Cycle::new(1));
        p.apply_read(
            q,
            ItemId::new(7),
            &candidate_from(Some(txn(0, 0))),
            Cycle::new(1),
        );
        p.finish_query(q);
        assert_eq!(p.graph_size().0, 0, "graph fully pruned after last query");
    }
}
