//! The traced run: a bench-owned replica of the `Simulation::run` cycle
//! loop (and of the sharded runner around it), built only from public
//! layer calls, with a timer around each call. The replica must
//! reproduce the untraced run's deterministic snapshot exactly; the
//! caller checks that.

use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bpush_broadcast::feed::encode_control_segment;
use bpush_broadcast::wire::WireParams;
use bpush_client::{CacheParams, ClientCache, QueryExecutor, QueryOutcome};
use bpush_core::instrument::Instrumented;
use bpush_core::validator::SerializabilityBatch;
use bpush_core::wirefed::WireFed;
use bpush_core::{AbortReason, CacheMode, ReadOnlyProtocol};
use bpush_obs::{Actor, Monitors, Obs};
use bpush_server::BroadcastServer;
use bpush_sim::{monitors_for, MethodMetrics};
use bpush_types::config::MultiversionLayout;
use bpush_types::seed::SeedSequence;
use bpush_types::stats::{Histogram, Ratio, Summary};
use bpush_types::{BpushError, ClientId, Cycle, SimConfig, Slot};

use crate::probe::{Probes, Timed};
use crate::workload::{shard_bounds, Workload};

/// A coarse wall-time span, kept in memory and written out at the end.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shard (thread lane) the span ran on.
    pub shard: usize,
    /// Start and end, in nanoseconds since the traced run began.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one shard's traced replica measured, in nanoseconds and
/// counts. Plain data, so it can leave the shard's thread.
#[derive(Debug, Default, Clone)]
pub struct ShardTally {
    pub wall_ns: u64,
    pub server_ns: u64,
    pub server_cycle_ns: Vec<u64>,
    pub server_cycles: u64,
    pub executor_ns: u64,
    pub client_cycle_ns: Vec<u64>,
    /// Everything inside the outermost protocol probe.
    pub stack_ns: u64,
    pub protocol_control_ns: u64,
    pub protocol_read_ns: u64,
    pub control_samples: Vec<u64>,
    pub codec_ns: u64,
    pub codec_calls: u64,
    pub codec_bytes: u64,
    pub monitor_ns: u64,
    pub controls: u64,
    pub reads: u64,
    pub accepted: u64,
    pub audit_ns: u64,
    pub audit_readsets: u64,
    pub audit_graph_nodes: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub spans: Vec<Span>,
}

/// The protocol stack between the executor and the method's protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Middle {
    None,
    Wire(WireParams),
    Monitors,
}

/// Wire widths sized for the configured universe, as the simulator
/// derives them for its wire feed.
fn wire_params(config: &SimConfig) -> WireParams {
    WireParams::derive(
        config.server.broadcast_size,
        config.server.report_window,
        config.server.txns_per_cycle,
        u32::try_from(config.max_cycles).unwrap_or(u32::MAX),
    )
}

/// Builds the clients of `range` exactly as the simulator does, with the
/// timing probes around the protocol stack.
fn build_clients(
    config: &SimConfig,
    w: Workload,
    range: std::ops::Range<u32>,
    middle: Middle,
    obs: &Obs,
    probes: &Rc<Probes>,
) -> Result<Vec<QueryExecutor>, BpushError> {
    let method = w.method();
    let seeds = SeedSequence::new(config.seed);
    let mut clients = Vec::with_capacity(range.len());
    for i in range {
        let cache = match method.cache_mode() {
            CacheMode::None => None,
            mode @ (CacheMode::Plain | CacheMode::Versioned | CacheMode::Multiversion) => {
                let cache_cfg = &config.client.cache;
                if !cache_cfg.is_enabled() {
                    None
                } else {
                    let (current, old) = if mode == CacheMode::Multiversion {
                        (cache_cfg.current_capacity(), cache_cfg.old_capacity())
                    } else {
                        (cache_cfg.capacity, 0)
                    };
                    Some(ClientCache::new(CacheParams {
                        mode,
                        current_capacity: current,
                        old_capacity: old,
                        items_per_bucket: config.server.items_per_bucket,
                    }))
                }
            }
        };
        // `WireFed` passes the per-query path straight through, so under
        // it the outer probe alone times that path.
        let inner_times_reads = !matches!(middle, Middle::Wire(_));
        let mut stack: Box<dyn ReadOnlyProtocol> = Box::new(Timed::new(
            method.build_protocol(),
            probes.clone(),
            false,
            inner_times_reads,
        ));
        stack = match middle {
            Middle::None => stack,
            Middle::Wire(params) => Box::new(WireFed::new(stack, params)),
            Middle::Monitors => {
                Box::new(Instrumented::with_obs(stack, obs.clone(), Actor::Client(i)))
            }
        };
        if middle != Middle::None {
            stack = Box::new(Timed::new(stack, probes.clone(), true, true));
        }
        let mut client = QueryExecutor::new(
            ClientId::new(i),
            config.client.clone(),
            method.build_protocol(),
            cache,
            config.queries_per_client,
            seeds.derive(&["client", &i.to_string()]),
        )?;
        if obs.is_enabled() {
            // Routes the executor's own events into the monitors; the
            // decorator this wraps around the placeholder protocol is
            // replaced by the probed stack just below.
            client = client.with_obs(obs.clone());
        }
        clients.push(client.with_protocol(stack));
    }
    Ok(clients)
}

fn since_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// The traced replica of one (shard of a) simulation.
fn run_shard(
    w: Workload,
    config: &SimConfig,
    range: std::ops::Range<u32>,
    shard: usize,
    monitors: Option<Monitors>,
    epoch: Instant,
) -> Result<(MethodMetrics, ShardTally), BpushError> {
    let method = w.method();
    let obs = match monitors {
        Some(m) => Obs::off().with_monitors(m),
        None => Obs::off(),
    };
    let middle = if w.wire_fed() {
        Middle::Wire(wire_params(config))
    } else if w.monitored() {
        Middle::Monitors
    } else {
        Middle::None
    };
    let seeds = SeedSequence::new(config.seed);
    let mut server = BroadcastServer::new(
        config.server.clone(),
        method.server_options(MultiversionLayout::Overflow),
        seeds.derive(&["server"]),
    )?;
    if obs.is_enabled() {
        server = server.with_obs(obs.clone());
    }
    let probes = Rc::new(Probes::default());
    let mut clients = build_clients(config, w, range, middle, &obs, &probes)?;
    // The shard's wall time starts once it is built; set-up is measured
    // by the untraced pass.
    let wall = Instant::now();
    let mut t = ShardTally::default();
    let span = |name, started: Instant, t: &mut ShardTally| {
        let start_ns = started.duration_since(epoch).as_nanos() as u64;
        t.spans.push(Span {
            name,
            shard,
            start_ns,
            end_ns: start_ns + since_ns(started),
        });
    };

    let warmup = Cycle::new(u64::from(config.warmup_cycles));
    let mut start = Slot::ZERO;
    let mut outcomes: Vec<QueryOutcome> = Vec::new();
    let mut total_slots = 0u64;
    let mut cycles = 0u64;
    let mut peak_graph = (0usize, 0usize);
    let mut validation_ns = Summary::new();
    while clients.iter().any(|c| !c.is_done()) {
        if cycles >= config.max_cycles {
            return Err(BpushError::CycleBudgetExhausted {
                max_cycles: config.max_cycles,
            });
        }
        let started = Instant::now();
        let bcast = server.run_cycle();
        let ns = since_ns(started);
        t.server_ns += ns;
        t.server_cycle_ns.push(ns);
        span("server.run_cycle", started, &mut t);
        if let Middle::Wire(params) = middle {
            t.codec_bytes += encode_control_segment(bcast.control(), params).len() as u64;
        }
        total_slots += bcast.total_slots();
        cycles += 1;
        let measured = bcast.cycle() >= warmup;
        let cycle_started = Instant::now();
        for client in &mut clients {
            let started = Instant::now();
            let connected = !client.roll_disconnect();
            let finished = client.run_cycle(&bcast, start, connected)?;
            t.client_cycle_ns.push(since_ns(started));
            if measured {
                outcomes.extend(finished);
            }
        }
        let sweep_ns = since_ns(cycle_started);
        validation_ns.record(sweep_ns as f64);
        t.executor_ns += sweep_ns;
        span("executor.sweep", cycle_started, &mut t);
        for client in &clients {
            if let Some((nodes, edges)) = client.space_metrics() {
                peak_graph.0 = peak_graph.0.max(nodes);
                peak_graph.1 = peak_graph.1.max(edges);
            }
        }
        start = start.plus(bcast.total_slots());
    }
    t.server_cycles = cycles;

    if obs.is_enabled() {
        obs.counter_add("sim.cycles", cycles);
        for client in &clients {
            if let Some(stats) = client.protocol_stats() {
                obs.counter_add("stats.controls", stats.controls);
                obs.counter_add("stats.queries", stats.queries);
                obs.counter_add("stats.directives", stats.directives);
                obs.counter_add("stats.accepts", stats.accepts);
                obs.counter_add("stats.rejects", stats.rejects);
                obs.counter_add("stats.dooms", stats.dooms);
                obs.counter_add("stats.finishes", stats.finishes);
                obs.counter_add("stats.missed-cycles", stats.missed_cycles);
            }
        }
    }

    let audit_started = Instant::now();
    let mut batch = SerializabilityBatch::new(server.history(), server.conflict_graph());
    let mut violations = 0;
    for o in outcomes.iter().filter(|o| o.committed()) {
        t.audit_readsets += 1;
        if batch.check(&o.reads).is_err() {
            violations += 1;
        }
    }
    drop(batch);
    t.audit_ns = since_ns(audit_started);
    span("audit", audit_started, &mut t);
    t.audit_graph_nodes = server.conflict_graph().node_count() as u64;

    let reduce_started = Instant::now();
    let metrics = reduce(
        w,
        config,
        &outcomes,
        &clients,
        total_slots,
        cycles,
        peak_graph,
        violations,
        validation_ns,
    );
    span("reduce", reduce_started, &mut t);

    for c in &clients {
        if let Some(s) = c.cache_stats() {
            t.cache_hits += s.hits;
            t.cache_lookups += s.hits + s.misses;
        }
    }
    let (outer, inner) = (&probes.outer, &probes.inner);
    t.controls = inner.controls.get();
    t.control_samples = inner.control_samples.take();
    match middle {
        Middle::None => {
            t.stack_ns = inner.total_ns();
            t.protocol_control_ns = inner.control_ns.get();
            t.protocol_read_ns = inner.read_ns.get();
            t.reads = inner.reads.get();
            t.accepted = inner.accepted.get();
        }
        Middle::Wire(_) => {
            t.stack_ns = outer.total_ns();
            t.protocol_control_ns = inner.control_ns.get();
            t.protocol_read_ns = outer.read_ns.get();
            t.codec_ns = outer
                .control_ns
                .get()
                .saturating_sub(inner.control_ns.get());
            t.codec_calls = outer.controls.get();
            t.reads = outer.reads.get();
            t.accepted = outer.accepted.get();
        }
        Middle::Monitors => {
            t.stack_ns = outer.total_ns();
            t.protocol_control_ns = inner.control_ns.get();
            t.protocol_read_ns = inner.read_ns.get();
            t.monitor_ns = outer.total_ns().saturating_sub(inner.total_ns());
            t.reads = inner.reads.get();
            t.accepted = inner.accepted.get();
        }
    }
    t.wall_ns = since_ns(wall);
    span("shard", wall, &mut t);
    Ok((metrics, t))
}

/// The metric reduction of `Simulation::run`, replicated.
#[allow(clippy::too_many_arguments)]
fn reduce(
    w: Workload,
    config: &SimConfig,
    outcomes: &[QueryOutcome],
    clients: &[QueryExecutor],
    total_slots: u64,
    cycles: u64,
    peak_graph: (usize, usize),
    violations: u64,
    validation_ns: Summary,
) -> MethodMetrics {
    let method = w.method();
    let mean_bcast_slots = total_slots as f64 / cycles.max(1) as f64;
    let cycle_len = mean_bcast_slots.max(1.0);
    let mut aborts = Ratio::new();
    let mut latency = Summary::new();
    let mut latency_slots = Summary::new();
    let mut latency_hist = Histogram::new();
    let mut span = Summary::new();
    let mut tuning = Summary::new();
    let mut broadcast_reads = Summary::new();
    let mut reasons: std::collections::BTreeMap<AbortReason, u64> =
        std::collections::BTreeMap::new();
    for o in outcomes {
        aborts.record(!o.committed());
        match o.aborted {
            Some(reason) => *reasons.entry(reason).or_insert(0) += 1,
            None => {
                latency.record(o.latency_slots() as f64 / cycle_len);
                latency_hist.record(o.latency_slots() as f64 / cycle_len);
                latency_slots.record(o.latency_slots() as f64);
                span.record(f64::from(o.span));
                tuning.record(o.tuning_slots as f64);
                broadcast_reads.record(f64::from(o.broadcast_reads));
            }
        }
    }
    let cache_hit_rate = if method.uses_cache() {
        let (mut hits, mut total) = (0u64, 0u64);
        for c in clients {
            if let Some(s) = c.cache_stats() {
                hits += s.hits;
                total += s.hits + s.misses;
            }
        }
        (total > 0).then(|| Ratio::from_counts(hits, total))
    } else {
        None
    };
    MethodMetrics {
        method,
        queries: outcomes.len() as u64,
        aborts,
        abort_reasons: reasons.into_iter().collect(),
        latency_cycles: latency,
        latency_slots,
        latency_hist,
        span,
        tuning_slots: tuning,
        broadcast_reads,
        cache_hit_rate,
        mean_bcast_slots,
        base_slots: u64::from(config.server.data_buckets()),
        violations,
        cycles,
        peak_graph_nodes: peak_graph.0,
        peak_graph_edges: peak_graph.1,
        validation_ns,
    }
}

/// One traced run of a workload: every shard's replica on the
/// workload's worker count, merged in shard order as the sharded runner
/// merges.
#[derive(Debug)]
pub struct TracedRun {
    pub wall_s: f64,
    pub metrics: MethodMetrics,
    pub monitor_violations: u64,
    pub shards: Vec<ShardTally>,
}

type ShardResult = Result<(MethodMetrics, ShardTally), BpushError>;

pub fn run_traced(w: Workload, config: &SimConfig) -> Result<TracedRun, BpushError> {
    config.validate()?;
    let bounds = shard_bounds(config.n_clients, w.shards());
    let monitors = w.monitored().then(|| monitors_for(config, w.method()));
    let workers = w.workers().clamp(1, bounds.len());
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let mut results: Vec<(usize, ShardResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = bounds.get(idx) else { break };
                        mine.push((
                            idx,
                            run_shard(w, config, range.clone(), idx, monitors.clone(), epoch),
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    results.sort_by_key(|(idx, _)| *idx);
    let mut merged: Option<MethodMetrics> = None;
    let mut shards = Vec::with_capacity(results.len());
    for (_, result) in results {
        let (metrics, tally) = result?;
        match &mut merged {
            None => merged = Some(metrics),
            Some(acc) => acc.merge(&metrics),
        }
        shards.push(tally);
    }
    let metrics = merged.ok_or_else(|| BpushError::invalid_config("no shard produced metrics"))?;
    let monitor_violations = monitors.map_or(0, |m| {
        let v = m.verdict();
        v.violations.len() as u64 + v.violations_dropped
    });
    Ok(TracedRun {
        wall_s,
        metrics,
        monitor_violations,
        shards,
    })
}
