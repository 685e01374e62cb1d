//! A decorator that forces a protocol's control input through the wire.
//!
//! [`WireFed`] wraps any [`ReadOnlyProtocol`] and intercepts
//! [`ReadOnlyProtocol::on_control`]: the in-memory [`ControlInfo`] is
//! encoded as a framed control segment, pushed through a
//! [`WireFeed`] byte buffer, decoded
//! back, and only the *decoded* report reaches the inner protocol — the
//! client sees exactly what a socket-fed client would see. Every other
//! trait method delegates untouched, and
//! [`ReadOnlyProtocol::debug_snapshot`] delegates to the inner protocol,
//! so a wire-fed run is byte-identical to a struct-fed run in the model
//! checker's state hashes *iff* the codec is faithful. Any encode/decode
//! divergence surfaces as a hash mismatch (or, in debug builds,
//! immediately as a failed equivalence assertion here).
//!
//! This is the same transparency contract as
//! [`Instrumented`](crate::instrument::Instrumented); the two decorators
//! compose in either order.
//!
//! The roundtrip itself is [`roundtrip_control`]. The decorator runs it
//! once per protocol, which suits the model checker and the conformance
//! battery; a simulator whose clients all hear the same broadcast runs
//! it once per cycle and hands the one decoded report to every client.

// The byte path itself (framing and field decode) lives in
// `bpush_broadcast::feed`, which carries the `sans_io`/`hot_path` lint
// contracts. This file deliberately does NOT declare `sans_io`: the
// call-graph lint resolves `self.inner.<method>(…)` to every
// `ReadOnlyProtocol` impl in scope, so the marker would extend L12's
// panic-freedom contract through the decorator into every concrete
// protocol — a contract those impls do not carry. The decorator inherits
// whatever contract the protocol it wraps has.

use bpush_broadcast::feed::{
    decode_control_payload, encode_control_segment, SegmentKind, WireFeed,
};
use bpush_broadcast::wire::WireParams;
use bpush_broadcast::ControlInfo;
use bpush_types::{Cycle, ItemId, QueryId};

use crate::instrument::ProtocolStats;
use crate::protocol::{CacheMode, ReadCandidate, ReadDirective, ReadOnlyProtocol, ReadOutcome};

/// Wraps a protocol so its control input takes the wire path.
///
/// # Example
/// ```
/// use bpush_broadcast::wire::WireParams;
/// use bpush_broadcast::ControlInfo;
/// use bpush_core::wirefed::WireFed;
/// use bpush_core::{Method, ReadOnlyProtocol};
/// use bpush_types::Cycle;
///
/// let mut plain = Method::Sgt.build_protocol();
/// let mut wired = WireFed::new(Method::Sgt.build_protocol(), WireParams::derive(100, 4, 8, 8));
/// let ctrl = ControlInfo::empty(Cycle::new(1));
/// plain.on_control(&ctrl);
/// wired.on_control(&ctrl);
/// assert_eq!(plain.debug_snapshot(), wired.debug_snapshot());
/// ```
#[derive(Debug)]
pub struct WireFed {
    inner: Box<dyn ReadOnlyProtocol>,
    params: WireParams,
    feed: WireFeed,
}

impl WireFed {
    /// Wraps `inner`; `params` must give every field of the deployment's
    /// control reports a wide-enough representation (see
    /// [`WireParams::derive`]).
    pub fn new(inner: Box<dyn ReadOnlyProtocol>, params: WireParams) -> Self {
        WireFed {
            inner,
            params,
            feed: WireFeed::new(),
        }
    }

    /// The wire widths in use.
    pub fn params(&self) -> WireParams {
        self.params
    }

    /// Unwraps the inner protocol.
    pub fn into_inner(self) -> Box<dyn ReadOnlyProtocol> {
        self.inner
    }
}

/// Runs `ctrl` through encode → framed bytes → `feed` → decode and
/// returns what a wire-fed client hears — the one copy of the control
/// roundtrip. [`WireFed`] calls it per protocol; a simulator whose
/// clients share one broadcast calls it once per cycle and hands the
/// decoded report to every client.
///
/// # Panics
/// Panics if the roundtrip fails or (in debug builds) decodes to a
/// report that differs from the original: both mean the codec has a
/// divergence bug, which the wire path exists to surface.
#[expect(clippy::expect_used, reason = "divergence detector by design")]
pub fn roundtrip_control(
    feed: &mut WireFeed,
    ctrl: &ControlInfo,
    params: WireParams,
) -> ControlInfo {
    let bytes = encode_control_segment(ctrl, params);
    feed.push(&bytes);
    let seg = feed
        .pop()
        .expect("control segment kind must frame")
        .expect("control segment must arrive whole");
    assert_eq!(seg.kind, SegmentKind::Control);
    assert_eq!(seg.cycle, ctrl.cycle());
    let decoded = decode_control_payload(seg.payload, params, seg.cycle)
        .expect("a wire-encoded control report must decode");
    debug_assert_eq!(&decoded, ctrl, "wire roundtrip changed the control report");
    decoded
}

impl ReadOnlyProtocol for WireFed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_mode(&self) -> CacheMode {
        self.inner.cache_mode()
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let decoded = roundtrip_control(&mut self.feed, ctrl, self.params);
        self.inner.on_control(&decoded);
    }

    fn on_missed_cycle(&mut self, cycle: Cycle) {
        self.inner.on_missed_cycle(cycle);
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        self.inner.begin_query(q, now);
    }

    fn read_directive(&self, q: QueryId, item: ItemId, now: Cycle) -> ReadDirective {
        self.inner.read_directive(q, item, now)
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        now: Cycle,
    ) -> ReadOutcome {
        self.inner.apply_read(q, item, candidate, now)
    }

    fn finish_query(&mut self, q: QueryId) {
        self.inner.finish_query(q)
    }

    fn space_metrics(&self) -> Option<(usize, usize)> {
        self.inner.space_metrics()
    }

    fn protocol_stats(&self) -> Option<ProtocolStats> {
        self.inner.protocol_stats()
    }

    /// Delegates to the inner protocol: feeding bytes instead of structs
    /// must not perturb the hashed state, and with a faithful codec it
    /// does not.
    fn debug_snapshot(&self) -> String {
        self.inner.debug_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::instrument::Instrumented;
    use crate::Method;
    use bpush_broadcast::{AugmentedReport, InvalidationReport};
    use bpush_sgraph::GraphDiff;
    use bpush_types::{Granularity, ItemValue, TxnId};

    fn params() -> WireParams {
        WireParams::derive(1000, 8, 32, 16)
    }

    fn sgt_control(cycle: u64) -> ControlInfo {
        let c = Cycle::new(cycle);
        let prev = c.prev();
        let inv = InvalidationReport::with_dated(
            c,
            4,
            [(ItemId::new(3), prev), (ItemId::new(9), c)],
            Granularity::Item,
            4,
        );
        let aug = AugmentedReport::new(prev, [(ItemId::new(3), TxnId::new(prev, 0))]);
        let diff = GraphDiff::new(prev, vec![TxnId::new(prev, 0)], vec![]);
        ControlInfo::new(c, inv, Some(aug), Some(diff))
    }

    #[test]
    fn wire_fed_protocols_still_conform() {
        for method in Method::ALL {
            let violations =
                conformance::check(&|| Box::new(WireFed::new(method.build_protocol(), params())));
            assert!(violations.is_empty(), "{method}: {violations:?}");
        }
    }

    #[test]
    fn wire_feeding_does_not_perturb_snapshots() {
        for method in Method::ALL {
            let mut plain = method.build_protocol();
            let mut wired = WireFed::new(method.build_protocol(), params());
            let q = QueryId::new(0);
            for p in [&mut *plain, &mut wired as &mut dyn ReadOnlyProtocol] {
                p.on_control(&sgt_control(1));
                p.begin_query(q, Cycle::new(1));
                p.on_control(&sgt_control(2));
            }
            assert_eq!(
                plain.debug_snapshot(),
                wired.debug_snapshot(),
                "{method}: the wire must not change the hashed state"
            );
        }
    }

    #[test]
    fn composes_with_instrumentation_in_either_order() {
        let a = Instrumented::new(Box::new(WireFed::new(
            Method::Sgt.build_protocol(),
            params(),
        )));
        let b = WireFed::new(
            Box::new(Instrumented::new(Method::Sgt.build_protocol())),
            params(),
        );
        for mut p in [
            Box::new(a) as Box<dyn ReadOnlyProtocol>,
            Box::new(b) as Box<dyn ReadOnlyProtocol>,
        ] {
            p.on_control(&sgt_control(1));
            let q = QueryId::new(0);
            p.begin_query(q, Cycle::new(1));
            assert!(matches!(
                p.read_directive(q, ItemId::new(1), Cycle::new(1)),
                ReadDirective::Read(_)
            ));
            let cand = ReadCandidate {
                value: ItemValue::initial(),
                last_writer_tag: None,
                valid_from: Cycle::ZERO,
                valid_until: None,
                source: crate::protocol::Source::BroadcastCurrent,
            };
            assert_eq!(
                p.apply_read(q, ItemId::new(1), &cand, Cycle::new(1)),
                ReadOutcome::Accepted
            );
            p.finish_query(q);
            let stats = p.protocol_stats().expect("instrumented");
            assert_eq!(stats.controls, 1);
            assert_eq!(stats.accepts, 1);
        }
    }

    #[test]
    fn one_feed_roundtrips_every_cycle_and_drains() {
        let mut feed = WireFeed::new();
        for cycle in 1..=3 {
            let ctrl = sgt_control(cycle);
            assert_eq!(roundtrip_control(&mut feed, &ctrl, params()), ctrl);
            assert_eq!(feed.buffered(), 0, "each roundtrip consumes its segment");
        }
    }

    #[test]
    fn delegates_everything_else() {
        let mut p = WireFed::new(Method::MultiversionCaching.build_protocol(), params());
        assert_eq!(p.name(), "mv-caching");
        assert_eq!(p.cache_mode(), CacheMode::Multiversion);
        p.on_missed_cycle(Cycle::new(2));
        assert_eq!(
            p.params().key_bits,
            WireParams::derive(1000, 8, 32, 16).key_bits
        );
        assert_eq!(p.into_inner().cache_mode(), CacheMode::Multiversion);
    }
}
