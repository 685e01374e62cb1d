//! The bench-side timing decorator. A `Timed` wraps a protocol stack
//! and accumulates wall time and counts into a shared `Probes` cell.
//! The replica installs one inside and, where a `WireFed` or monitor
//! `Instrumented` layer sits between, one outside that layer, so codec
//! and monitor time come out as outer minus inner.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use bpush_broadcast::ControlInfo;
use bpush_core::instrument::ProtocolStats;
use bpush_core::{CacheMode, ReadCandidate, ReadDirective, ReadOnlyProtocol, ReadOutcome};
use bpush_types::{Cycle, ItemId, QueryId};

/// Time and counts seen at one probe position.
#[derive(Debug, Default)]
pub struct Position {
    /// `on_control` and `on_missed_cycle`, in nanoseconds.
    pub control_ns: Cell<u64>,
    /// The per-query path: `begin_query`, `read_directive`,
    /// `apply_read` and `finish_query`, in nanoseconds.
    pub read_ns: Cell<u64>,
    pub controls: Cell<u64>,
    /// Candidates offered through `apply_read`.
    pub reads: Cell<u64>,
    pub accepted: Cell<u64>,
    /// One sample per `on_control`, in nanoseconds (inner probe only).
    pub control_samples: RefCell<Vec<u64>>,
}

impl Position {
    pub fn total_ns(&self) -> u64 {
        self.control_ns.get() + self.read_ns.get()
    }
}

/// The two probe positions of one shard's clients.
#[derive(Debug, Default)]
pub struct Probes {
    pub outer: Position,
    pub inner: Position,
}

/// Runs `f`, adding its wall time to `cell` when `on`.
fn timed<T>(cell: &Cell<u64>, on: bool, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let started = Instant::now();
    let out = f();
    cell.set(cell.get() + started.elapsed().as_nanos() as u64);
    out
}

/// The timing decorator.
#[derive(Debug)]
pub struct Timed {
    inner: Box<dyn ReadOnlyProtocol>,
    probes: Rc<Probes>,
    outer: bool,
    /// Whether the per-query path is timed here; the inner probe below
    /// a pure pass-through layer leaves it to the outer one.
    time_reads: bool,
}

impl Timed {
    pub fn new(
        inner: Box<dyn ReadOnlyProtocol>,
        probes: Rc<Probes>,
        outer: bool,
        time_reads: bool,
    ) -> Self {
        Timed {
            inner,
            probes,
            outer,
            time_reads,
        }
    }
}

/// The probe position a `Timed` records into.
fn position(probes: &Probes, outer: bool) -> &Position {
    if outer {
        &probes.outer
    } else {
        &probes.inner
    }
}

impl ReadOnlyProtocol for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_mode(&self) -> CacheMode {
        self.inner.cache_mode()
    }

    fn on_control(&mut self, ctrl: &ControlInfo) {
        let pos = position(&self.probes, self.outer);
        let started = Instant::now();
        self.inner.on_control(ctrl);
        let ns = started.elapsed().as_nanos() as u64;
        pos.control_ns.set(pos.control_ns.get() + ns);
        pos.controls.set(pos.controls.get() + 1);
        if !self.outer {
            pos.control_samples.borrow_mut().push(ns);
        }
    }

    fn on_missed_cycle(&mut self, cycle: Cycle) {
        let pos = position(&self.probes, self.outer);
        timed(&pos.control_ns, true, || self.inner.on_missed_cycle(cycle));
    }

    fn begin_query(&mut self, q: QueryId, now: Cycle) {
        let pos = position(&self.probes, self.outer);
        timed(&pos.read_ns, self.time_reads, || {
            self.inner.begin_query(q, now)
        });
    }

    fn read_directive(&self, q: QueryId, item: ItemId, now: Cycle) -> ReadDirective {
        let pos = position(&self.probes, self.outer);
        timed(&pos.read_ns, self.time_reads, || {
            self.inner.read_directive(q, item, now)
        })
    }

    fn apply_read(
        &mut self,
        q: QueryId,
        item: ItemId,
        candidate: &ReadCandidate,
        now: Cycle,
    ) -> ReadOutcome {
        let pos = position(&self.probes, self.outer);
        let outcome = timed(&pos.read_ns, self.time_reads, || {
            self.inner.apply_read(q, item, candidate, now)
        });
        pos.reads.set(pos.reads.get() + 1);
        if outcome == ReadOutcome::Accepted {
            pos.accepted.set(pos.accepted.get() + 1);
        }
        outcome
    }

    fn finish_query(&mut self, q: QueryId) {
        let pos = position(&self.probes, self.outer);
        timed(&pos.read_ns, self.time_reads, || self.inner.finish_query(q));
    }

    fn space_metrics(&self) -> Option<(usize, usize)> {
        self.inner.space_metrics()
    }

    fn protocol_stats(&self) -> Option<ProtocolStats> {
        self.inner.protocol_stats()
    }

    fn debug_snapshot(&self) -> String {
        self.inner.debug_snapshot()
    }
}
