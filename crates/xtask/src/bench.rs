//! `cargo xtask bench`: the fixed-seed performance-trajectory harness.
//!
//! Two passes, both fully deterministic in *work* (timings vary, the
//! operation streams do not):
//!
//! 1. **Substrate microbench** — an identical sliding-window SGT workload
//!    (layered transaction edges, query entanglement, deep
//!    `would_close_cycle` probes, per-cycle `remove_query`, windowed
//!    `prune_before`) driven over both [`bpush_sgraph::SerializationGraph`]
//!    (the dense interned implementation) and
//!    [`bpush_sgraph::baseline::BaselineGraph`] (the original
//!    BTree-adjacency implementation). The two runs must produce the same
//!    checksum — the bench doubles as a differential check — and the
//!    headline number is `sgt_speedup_pct`, the baseline/interned wall-time
//!    ratio in integer percent (`200` = 2x).
//! 2. **Per-method end-to-end pass** — every [`Method`] runs through the
//!    full simulator at the paper defaults (or the quick scale with
//!    `--quick`), recording wall time, query count, and commit count.
//!
//! The report renders to an all-integer JSON document (schema
//! `bpush-bench-v1`, pinned key order) written to `BENCH_3.json` so the
//! repository carries its own performance trajectory; the schema is locked
//! by `tests/json_schema.rs` exactly like `lint --json` and `mc --json`.

use std::path::Path;
use std::time::Instant;

use crate::jsonv::{self, Json};
use bpush_broadcast::feed::{decode_segment, encode_bcast_segments, DecodedSegment, WireFeed};
use bpush_broadcast::wire::WireParams;
use bpush_broadcast::{Bcast, InvalidationReport};
use bpush_core::batch::{stale_verdicts, CohortScreen};
use bpush_core::{Method, ReadSet};
use bpush_server::BroadcastServer;
use bpush_sgraph::baseline::BaselineGraph;
use bpush_sgraph::{Node, SerializationGraph};
use bpush_sim::experiments::{config_for, defaults, Scale};
use bpush_sim::{monitors_for, run_sharded_with_workers, Job, Simulation};
use bpush_types::config::MultiversionLayout;
use bpush_types::{BpushError, Cycle, Granularity, ItemId, QueryId, ServerConfig, TxnId};

/// One timed substrate workload.
#[derive(Debug, Clone)]
pub struct SubstrateBench {
    /// Stable workload name (`sgt-substrate-interned`, `sgt-substrate-baseline`).
    pub name: String,
    /// Number of timed repetitions of the full workload.
    pub iters: u64,
    /// Total wall time across all repetitions, in nanoseconds.
    pub total_ns: u64,
    /// `total_ns / iters`.
    pub ns_per_iter: u64,
}

/// One end-to-end simulator run.
#[derive(Debug, Clone)]
pub struct MethodBench {
    /// Method name as printed by the experiment tables (e.g. `sgt`).
    pub method: String,
    /// Wall time of the full simulation, in nanoseconds.
    pub wall_ns: u64,
    /// Queries issued (after warmup).
    pub queries: u64,
    /// Queries that committed (issued minus aborted).
    pub committed: u64,
}

/// The full `cargo xtask bench` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The simulator seed used for the per-method pass.
    pub seed: u64,
    /// Whether the reduced `--quick` scale was used.
    pub quick: bool,
    /// The substrate microbenches (interned first, baseline second).
    pub substrate: Vec<SubstrateBench>,
    /// Baseline-over-interned substrate wall-time ratio in integer
    /// percent: `200` means the interned graph is 2x faster.
    pub sgt_speedup_pct: u64,
    /// Per-method end-to-end results, in [`Method::ALL`] order.
    pub methods: Vec<MethodBench>,
}

/// The sliding-window SGT substrate workload, written once and expanded
/// for both graph implementations (their APIs are intentionally
/// identical). Returns a checksum so the optimizer cannot drop the work
/// and the two implementations can be cross-checked.
macro_rules! substrate_workload {
    ($graph:ty, $cycles:expr, $window:expr) => {{
        let cycles: u64 = $cycles;
        let window: u64 = $window;
        let mut g = <$graph>::new();
        let mut closed: u64 = 0;
        for cy in 1..=cycles {
            // The cycle's transactions, each reading from the previous
            // layer: a dense layered DAG, matching the shape SGT builds
            // from consecutive control-information broadcasts.
            for seq in 0..10u32 {
                g.add_edge(
                    Node::Txn(TxnId::new(Cycle::new(cy - 1), seq)),
                    Node::Txn(TxnId::new(Cycle::new(cy), (seq + 3) % 10)),
                );
            }
            // Two active queries entangled with the fresh layer, as
            // `try_add_edge` would leave them after a round of reads.
            let q0 = QueryId::new(cy * 2);
            let q1 = QueryId::new(cy * 2 + 1);
            g.add_edge(Node::Query(q0), Node::Txn(TxnId::new(Cycle::new(cy), 0)));
            g.add_edge(Node::Txn(TxnId::new(Cycle::new(cy), 1)), Node::Query(q0));
            g.add_edge(Node::Query(q1), Node::Txn(TxnId::new(Cycle::new(cy), 2)));
            // Acceptance probes at increasing depth: each one forces a
            // DFS from an old transaction forward through the layers.
            for k in [1u64, 4, 16, 64] {
                if cy > k {
                    let old = Node::Txn(TxnId::new(Cycle::new(cy - k), 0));
                    if g.would_close_cycle(Node::Query(q0), old) {
                        closed += 1;
                    }
                }
            }
            // Retire this cycle's first query and the previous cycle's
            // second, then slide the pruning window.
            g.remove_query(q0);
            if cy > 1 {
                g.remove_query(QueryId::new((cy - 1) * 2 + 1));
            }
            if cy > window {
                g.prune_before(Cycle::new(cy - window));
            }
        }
        closed
            .wrapping_mul(1_000_003)
            .wrapping_add(g.node_count() as u64)
            .wrapping_mul(1_000_003)
            .wrapping_add(g.edge_count() as u64)
    }};
}

/// SplitMix64 — the deterministic id stream for the membership fixture
/// (same mix the sim runner uses for replication seeds).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The report-membership fixture: a region-structured id universe where
/// the report touches only the low regions, so most cohorts are
/// provably disjoint — the shape one broadcast cycle presents to a
/// client population, and the case the PR-8 word-AND path is built for.
struct MembershipFixture {
    report: InvalidationReport,
    /// Per cohort: the readsets of its co-resident queries.
    cohorts: Vec<Vec<ReadSet>>,
    /// Per cohort: the incrementally-maintained union screen.
    screens: Vec<CohortScreen>,
}

/// Ids per region; cohort `j` reads only within region `j`.
const REGION: u64 = 64;

fn membership_fixture(quick: bool) -> MembershipFixture {
    let (regions, per_cohort, per_readset, updates) = if quick {
        (24usize, 3usize, 8u64, 120u64)
    } else {
        (64, 4, 12, 300)
    };
    // the report names `updates` items inside the low eighth of the
    // universe: cohorts there fall back to per-query probes, the rest
    // screen out in one word-AND pass
    let hot_span = (regions as u64 * REGION) / 8;
    let report = InvalidationReport::new(
        Cycle::new(1),
        1,
        (0..updates).map(|i| ItemId::new((mix(i) % hot_span) as u32)),
        Granularity::Item,
        1,
    );
    let mut cohorts = Vec::with_capacity(regions);
    let mut screens = Vec::with_capacity(regions);
    for j in 0..regions as u64 {
        let mut cohort = Vec::with_capacity(per_cohort);
        for q in 0..per_cohort as u64 {
            let rs: ReadSet = (0..per_readset)
                .map(|k| ItemId::new((j * REGION + mix(j * 131 + q * 17 + k) % REGION) as u32))
                .collect();
            cohort.push(rs);
        }
        screens.push(CohortScreen::for_readsets(cohort.iter()));
        cohorts.push(cohort);
    }
    MembershipFixture {
        report,
        cohorts,
        screens,
    }
}

impl MembershipFixture {
    /// Every readset probed through the word-AND membership path.
    fn probe_words(&self) -> u64 {
        let mut hits = 0u64;
        for cohort in &self.cohorts {
            for rs in cohort {
                if self
                    .report
                    .any_stale_set(rs.as_slice(), rs.word_blocks(), Cycle::ZERO)
                {
                    hits += 1;
                }
            }
        }
        hits
    }

    /// Every readset probed through the PR-3 galloping path.
    fn probe_gallop(&self) -> u64 {
        let mut hits = 0u64;
        for cohort in &self.cohorts {
            for rs in cohort {
                if self.report.any_stale(rs.as_slice(), Cycle::ZERO) {
                    hits += 1;
                }
            }
        }
        hits
    }

    /// Whole cohorts through the batch engine: one screen pass each,
    /// per-query word probes only where the screen cannot settle it.
    fn batch_words(&self, out: &mut Vec<bool>) -> u64 {
        let mut hits = 0u64;
        for (cohort, screen) in self.cohorts.iter().zip(&self.screens) {
            let cohort: Vec<(&ReadSet, Cycle)> =
                cohort.iter().map(|rs| (rs, Cycle::ZERO)).collect();
            stale_verdicts(&self.report, screen, &cohort, out);
            hits += out.iter().filter(|&&b| b).count() as u64;
        }
        hits
    }

    /// The same cohorts validated query by query with galloping probes —
    /// the PR-3 client loop the batch engine replaces.
    fn batch_gallop(&self) -> u64 {
        let mut hits = 0u64;
        for cohort in &self.cohorts {
            for rs in cohort {
                if self.report.any_stale(rs.as_slice(), Cycle::ZERO) {
                    hits += 1;
                }
            }
        }
        hits
    }
}

/// One multiply–add checksum step (same fold the substrate workload
/// uses).
fn fold_step(acc: u64, x: u64) -> u64 {
    acc.wrapping_mul(1_000_003).wrapping_add(x)
}

/// FNV-1a over a string, for hashing protocol snapshots into the
/// wire-feed checksum.
fn fnv64_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The sans-IO feed fixture: an SGT server's cycles captured both as
/// in-memory [`Bcast`]s and as framed wire segments
/// (`bpush_broadcast::feed`). The two probe passes drive the same
/// protocol state machine over the same cycles — one reassembling and
/// decoding wire bytes, one hearing the structs directly — and fold an
/// identical checksum over the final protocol snapshot plus the
/// data/directory content, so any encode/decode divergence fails the
/// bench instead of silently skewing it.
struct WireFixture {
    bcasts: Vec<Bcast>,
    /// Per cycle, the framed segment bytes on the air.
    streams: Vec<Vec<u8>>,
    params: WireParams,
}

fn wire_fixture(quick: bool) -> Result<WireFixture, BpushError> {
    let cycles: u64 = if quick { 24 } else { 96 };
    let config = ServerConfig {
        broadcast_size: 200,
        update_range: 100,
        server_read_range: 200,
        updates_per_cycle: 20,
        txns_per_cycle: 5,
        ..ServerConfig::default()
    };
    let params = WireParams::derive(
        config.broadcast_size,
        config.report_window,
        config.txns_per_cycle,
        u32::try_from(cycles).unwrap_or(u32::MAX),
    );
    let mut server = BroadcastServer::new(
        config,
        Method::Sgt.server_options(MultiversionLayout::Overflow),
        17,
    )?;
    let mut bcasts = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..cycles {
        let bcast = server.run_cycle();
        streams.push(encode_bcast_segments(&bcast, params));
        bcasts.push(bcast);
    }
    Ok(WireFixture {
        bcasts,
        streams,
        params,
    })
}

impl WireFixture {
    /// Bytes in: reassemble segments from 64-byte transport chunks,
    /// decode each, and feed the control reports to a fresh SGT
    /// protocol.
    #[expect(clippy::expect_used, reason = "the fixture encoded these bytes itself")]
    fn decode_feed(&self) -> u64 {
        let mut protocol = Method::Sgt.build_protocol();
        let mut feed = WireFeed::new();
        let mut fold = 0u64;
        for stream in &self.streams {
            for chunk in stream.chunks(64) {
                feed.push(chunk);
            }
            // The fixture encoded these bytes itself; malformed
            // input here is a framing bug worth a loud stop.
            while let Some(seg) = feed.pop().expect("well-formed fixture stream") {
                match decode_segment(seg, self.params).expect("well-formed fixture stream") {
                    DecodedSegment::Control(ctrl) => protocol.on_control(&ctrl),
                    DecodedSegment::Data(_, records) => {
                        fold = fold_step(fold, records.len() as u64);
                    }
                    DecodedSegment::Directory(dir) => {
                        fold = fold_step(fold, dir.entries().count() as u64);
                    }
                }
            }
        }
        fold_step(fnv64_str(&protocol.debug_snapshot()), fold)
    }

    /// The same cycles heard as in-memory structs, folding the same
    /// checksum in the same order (directory, control, data).
    fn struct_feed(&self) -> u64 {
        let mut protocol = Method::Sgt.build_protocol();
        let mut fold = 0u64;
        for bcast in &self.bcasts {
            if let Some(dir) = bcast.directory() {
                fold = fold_step(fold, dir.entries().count() as u64);
            }
            protocol.on_control(bcast.control());
            fold = fold_step(fold, bcast.records().count() as u64);
        }
        fold_step(fnv64_str(&protocol.debug_snapshot()), fold)
    }
}

/// Times `iters` repetitions of `work`, returning `(total_ns,
/// last_checksum)`.
fn time_ns(iters: u64, mut work: impl FnMut() -> u64) -> (u64, u64) {
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        checksum = std::hint::black_box(work());
    }
    let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (total, checksum)
}

/// Runs the substrate microbench and the per-method pass.
///
/// # Errors
/// Propagates simulator configuration errors, and reports an internal
/// error if the interned and baseline graphs diverge on the shared
/// workload (they never should — the differential proptests lock this).
pub fn run_bench(quick: bool) -> Result<BenchReport, BpushError> {
    let (cycles, window, iters) = if quick { (120, 30, 3) } else { (400, 48, 10) };

    let (interned_ns, interned_sum) = time_ns(iters, || {
        substrate_workload!(SerializationGraph, cycles, window)
    });
    let (baseline_ns, baseline_sum) =
        time_ns(iters, || substrate_workload!(BaselineGraph, cycles, window));
    if interned_sum != baseline_sum {
        return Err(BpushError::invalid_config(format!(
            "substrate checksum mismatch: interned {interned_sum} != baseline {baseline_sum}"
        )));
    }
    let mut substrate = vec![
        SubstrateBench {
            name: "sgt-substrate-interned".to_owned(),
            iters,
            total_ns: interned_ns,
            ns_per_iter: interned_ns / iters.max(1),
        },
        SubstrateBench {
            name: "sgt-substrate-baseline".to_owned(),
            iters,
            total_ns: baseline_ns,
            ns_per_iter: baseline_ns / iters.max(1),
        },
    ];
    let sgt_speedup_pct = baseline_ns.saturating_mul(100) / interned_ns.max(1);

    // PR-8: word-AND report membership vs the PR-3 galloping probes,
    // and the batch cohort engine vs the per-query validation loop.
    // Each pair runs the identical probe stream; the hit counts are the
    // differential checksum.
    let fixture = membership_fixture(quick);
    let probe_iters: u64 = if quick { 60 } else { 400 };
    let (words_ns, words_sum) = time_ns(probe_iters, || fixture.probe_words());
    let (gallop_ns, gallop_sum) = time_ns(probe_iters, || fixture.probe_gallop());
    if words_sum != gallop_sum {
        return Err(BpushError::invalid_config(format!(
            "membership checksum mismatch: words {words_sum} != gallop {gallop_sum}"
        )));
    }
    let mut verdicts = Vec::new();
    let (bwords_ns, bwords_sum) = time_ns(probe_iters, || fixture.batch_words(&mut verdicts));
    let (bgallop_ns, bgallop_sum) = time_ns(probe_iters, || fixture.batch_gallop());
    if bwords_sum != bgallop_sum {
        return Err(BpushError::invalid_config(format!(
            "batch checksum mismatch: words {bwords_sum} != gallop {bgallop_sum}"
        )));
    }
    for (name, ns) in [
        ("report-membership-words", words_ns),
        ("report-membership-gallop", gallop_ns),
        ("batch-validation-words", bwords_ns),
        ("batch-validation-gallop", bgallop_ns),
    ] {
        substrate.push(SubstrateBench {
            name: name.to_owned(),
            iters: probe_iters,
            total_ns: ns,
            ns_per_iter: ns / probe_iters.max(1),
        });
    }

    // Sans-IO wire feed: the framed-segment decode path against the
    // struct-fed path, same protocol, same cycles. The checksum over
    // the final protocol snapshot plus decoded content is the
    // differential check — a mismatch is an encode/decode divergence.
    let wire = wire_fixture(quick)?;
    let feed_iters: u64 = if quick { 40 } else { 200 };
    let (wire_ns, wire_sum) = time_ns(feed_iters, || wire.decode_feed());
    let (struct_ns, struct_sum) = time_ns(feed_iters, || wire.struct_feed());
    if wire_sum != struct_sum {
        return Err(BpushError::invalid_config(format!(
            "wire-feed checksum mismatch: wire {wire_sum} != struct {struct_sum}"
        )));
    }
    for (name, ns) in [("wire-decode-feed", wire_ns), ("struct-feed", struct_ns)] {
        substrate.push(SubstrateBench {
            name: name.to_owned(),
            iters: feed_iters,
            total_ns: ns,
            ns_per_iter: ns / feed_iters.max(1),
        });
    }

    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let base = defaults(scale);
    let seed = base.seed;
    let mut methods = Vec::with_capacity(Method::ALL.len());
    for &m in &Method::ALL {
        let sim = Simulation::new(config_for(m, base.clone()), m)?;
        let start = Instant::now();
        let metrics = sim.run()?;
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        methods.push(MethodBench {
            method: metrics.method.name().to_owned(),
            wall_ns,
            queries: metrics.queries,
            committed: metrics.queries.saturating_sub(metrics.aborts.hits()),
        });
    }

    // PR-8: the sharded runner at 1/2/4 worker threads over a fixed
    // shard layout; the deterministic metric snapshots must be
    // byte-identical at every worker count (the merge is in shard
    // order), which doubles as the run's differential check.
    let shard_job = Job::new(Method::InvalidationOnly, base.clone());
    let shards = base.n_clients.clamp(1, 4);
    let mut shard_snapshots: Vec<String> = Vec::new();
    for workers in [1usize, 2, 4] {
        let start = Instant::now();
        let metrics = run_sharded_with_workers(&shard_job, shards, workers)?;
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shard_snapshots.push(metrics.deterministic_snapshot());
        substrate.push(SubstrateBench {
            name: format!("sharded-runner-{workers}w"),
            iters: 1,
            total_ns: ns,
            ns_per_iter: ns,
        });
    }
    if !shard_snapshots.windows(2).all(|w| w[0] == w[1]) {
        return Err(BpushError::invalid_config(
            "sharded runner metrics diverged across worker counts",
        ));
    }

    // PR-10: the online invariant monitors' overhead — one SGT run bare
    // and one with the monitor engine attached (SGT carries the
    // heaviest monitor, the incremental serializability graph). The
    // differential check: monitors observe but never perturb, so the
    // two metric snapshots must be byte-identical and the monitored
    // run's verdict must pass. The checked-in BENCH_10.json locks the
    // overhead ceiling (monitors-on >= 90% of monitors-off throughput)
    // in tests/json_schema.rs.
    let mon_config = config_for(Method::Sgt, base.clone());
    let start = Instant::now();
    let off_metrics = Simulation::new(mon_config.clone(), Method::Sgt)?.run()?;
    let off_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let monitors = monitors_for(&mon_config, Method::Sgt);
    let start = Instant::now();
    let on_metrics = Simulation::new(mon_config.clone(), Method::Sgt)?
        .with_monitors(monitors.clone())
        .run()?;
    let on_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if off_metrics.deterministic_snapshot() != on_metrics.deterministic_snapshot() {
        return Err(BpushError::invalid_config(
            "monitors perturbed the simulation metrics",
        ));
    }
    if !monitors.verdict().pass() {
        return Err(BpushError::invalid_config(
            "a genuine method tripped its monitors in the bench run",
        ));
    }
    for (name, ns) in [("monitors-off", off_ns), ("monitors-on", on_ns)] {
        substrate.push(SubstrateBench {
            name: name.to_owned(),
            iters: 1,
            total_ns: ns,
            ns_per_iter: ns,
        });
    }

    Ok(BenchReport {
        seed,
        quick,
        substrate,
        sgt_speedup_pct,
        methods,
    })
}

/// Renders the report as the pinned-key-order, all-integer
/// `bpush-bench-v1` JSON document (one line, no trailing newline).
#[must_use]
pub fn render_json(report: &BenchReport) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"schema\":\"bpush-bench-v1\"");
    out.push_str(&format!(",\"seed\":{}", report.seed));
    out.push_str(&format!(",\"quick\":{}", report.quick));
    out.push_str(",\"substrate\":[");
    for (i, s) in report.substrate.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"iters\":{},\"total_ns\":{},\"ns_per_iter\":{}}}",
            s.name, s.iters, s.total_ns, s.ns_per_iter
        ));
    }
    out.push(']');
    out.push_str(&format!(",\"sgt_speedup_pct\":{}", report.sgt_speedup_pct));
    out.push_str(",\"methods\":[");
    for (i, m) in report.methods.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"method\":\"{}\",\"wall_ns\":{},\"queries\":{},\"committed\":{}}}",
            m.method, m.wall_ns, m.queries, m.committed
        ));
    }
    out.push_str("]}");
    out
}

/// One checked-in `BENCH_<n>.json` report in the repository's
/// performance trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryEntry {
    /// PR number extracted from the file name.
    pub pr: u64,
    /// File name at the workspace root (`BENCH_3.json`).
    pub file: String,
    /// The report's `quick` flag.
    pub quick: bool,
    /// The report's headline `sgt_speedup_pct`.
    pub sgt_speedup_pct: u64,
}

/// Discovers every `BENCH_<n>.json` at the workspace root, validates
/// each against the `bpush-bench-v1` schema, and returns the entries
/// sorted by PR number.
///
/// # Errors
/// Fails if the root cannot be listed, or any discovered report is
/// unreadable or fails schema validation — a checked-in report that no
/// longer parses is a broken trajectory, not a skippable file.
pub fn load_trajectory(root: &Path) -> Result<Vec<TrajectoryEntry>, BpushError> {
    let dir = std::fs::read_dir(root)
        .map_err(|e| BpushError::invalid_config(format!("cannot list {}: {e}", root.display())))?;
    let mut entries = Vec::new();
    for entry in dir {
        let entry =
            entry.map_err(|e| BpushError::invalid_config(format!("cannot list entry: {e}")))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pr) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| BpushError::invalid_config(format!("cannot read {name}: {e}")))?;
        let (quick, sgt_speedup_pct) = validate_bench_json(&text)
            .map_err(|e| BpushError::invalid_config(format!("{name}: {e}")))?;
        entries.push(TrajectoryEntry {
            pr,
            file: name,
            quick,
            sgt_speedup_pct,
        });
    }
    entries.sort_by_key(|e| e.pr);
    Ok(entries)
}

/// Validates one report against the `bpush-bench-v1` schema, returning
/// its `(quick, sgt_speedup_pct)` on success.
fn validate_bench_json(text: &str) -> Result<(bool, u64), String> {
    let v = jsonv::parse(text.trim())?;
    if v.get("schema").and_then(Json::as_str) != Some("bpush-bench-v1") {
        return Err("missing or wrong `schema` (want \"bpush-bench-v1\")".to_string());
    }
    v.get("seed")
        .and_then(Json::as_u64)
        .ok_or("missing integer `seed`")?;
    let quick = v
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing boolean `quick`")?;
    let substrate = v
        .get("substrate")
        .and_then(Json::as_arr)
        .ok_or("missing array `substrate`")?;
    if substrate.is_empty() {
        return Err("`substrate` is empty".to_string());
    }
    for s in substrate {
        s.get("name")
            .and_then(Json::as_str)
            .ok_or("substrate entry missing `name`")?;
        for key in ["iters", "total_ns", "ns_per_iter"] {
            s.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("substrate entry missing integer `{key}`"))?;
        }
    }
    let speedup = v
        .get("sgt_speedup_pct")
        .and_then(Json::as_u64)
        .ok_or("missing integer `sgt_speedup_pct`")?;
    let methods = v
        .get("methods")
        .and_then(Json::as_arr)
        .ok_or("missing array `methods`")?;
    if methods.is_empty() {
        return Err("`methods` is empty".to_string());
    }
    for m in methods {
        m.get("method")
            .and_then(Json::as_str)
            .ok_or("method entry missing `method`")?;
        for key in ["wall_ns", "queries", "committed"] {
            m.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("method entry missing integer `{key}`"))?;
        }
    }
    Ok((quick, speedup))
}

/// Renders the trajectory as a short human-readable table.
#[must_use]
pub fn render_trajectory(entries: &[TrajectoryEntry]) -> String {
    let mut out = String::from("trajectory:\n");
    for e in entries {
        out.push_str(&format!(
            "  PR {:<3} {:<16} speedup {:>5}%  ({})\n",
            e.pr,
            e.file,
            e.sgt_speedup_pct,
            if e.quick { "quick" } else { "paper" }
        ));
    }
    out
}

/// Renders the report as a human-readable summary.
#[must_use]
pub fn render_text(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "xtask bench (seed {:#x}, {} scale)\n\nsubstrate:\n",
        report.seed,
        if report.quick { "quick" } else { "paper" }
    ));
    for s in &report.substrate {
        out.push_str(&format!(
            "  {:<26} {:>12} ns/iter  ({} iters)\n",
            s.name, s.ns_per_iter, s.iters
        ));
    }
    out.push_str(&format!(
        "  interned vs baseline       {:>11}%  (>= 200 means >= 2x)\n\nmethods:\n",
        report.sgt_speedup_pct
    ));
    for m in &report.methods {
        out.push_str(&format!(
            "  {:<26} {:>12} ns  {} queries, {} committed\n",
            m.method, m.wall_ns, m.queries, m.committed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_produces_full_report() {
        let report = run_bench(true).unwrap();
        assert!(report.quick);
        assert_eq!(report.substrate.len(), 13);
        assert_eq!(report.substrate[0].name, "sgt-substrate-interned");
        assert_eq!(report.substrate[1].name, "sgt-substrate-baseline");
        for name in [
            "report-membership-words",
            "report-membership-gallop",
            "batch-validation-words",
            "batch-validation-gallop",
            "wire-decode-feed",
            "struct-feed",
            "sharded-runner-1w",
            "sharded-runner-2w",
            "sharded-runner-4w",
            "monitors-off",
            "monitors-on",
        ] {
            assert!(
                report.substrate.iter().any(|s| s.name == name),
                "missing substrate entry `{name}`"
            );
        }
        for s in &report.substrate {
            assert!(s.total_ns > 0);
            assert!(s.ns_per_iter > 0);
        }
        assert!(report.sgt_speedup_pct > 0);
        assert_eq!(report.methods.len(), Method::ALL.len());
        for m in &report.methods {
            assert!(m.queries > 0);
            assert!(m.committed <= m.queries);
        }
    }

    #[test]
    fn json_rendering_pins_schema_and_key_order() {
        let report = BenchReport {
            seed: 7,
            quick: true,
            substrate: vec![SubstrateBench {
                name: "sgt-substrate-interned".to_owned(),
                iters: 3,
                total_ns: 300,
                ns_per_iter: 100,
            }],
            sgt_speedup_pct: 250,
            methods: vec![MethodBench {
                method: "sgt".to_owned(),
                wall_ns: 42,
                queries: 10,
                committed: 9,
            }],
        };
        let json = render_json(&report);
        assert_eq!(
            json,
            "{\"schema\":\"bpush-bench-v1\",\"seed\":7,\"quick\":true,\
             \"substrate\":[{\"name\":\"sgt-substrate-interned\",\"iters\":3,\
             \"total_ns\":300,\"ns_per_iter\":100}],\"sgt_speedup_pct\":250,\
             \"methods\":[{\"method\":\"sgt\",\"wall_ns\":42,\"queries\":10,\
             \"committed\":9}]}"
        );
        let text = render_text(&report);
        assert!(text.contains("sgt-substrate-interned"));
        assert!(text.contains("250%"));
    }

    #[test]
    fn checked_in_trajectory_is_non_empty_and_monotone() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let traj = load_trajectory(&root).unwrap();
        assert!(
            !traj.is_empty(),
            "no BENCH_<n>.json found at the workspace root — the trajectory is empty"
        );
        for pair in traj.windows(2) {
            assert!(
                pair[0].pr < pair[1].pr,
                "trajectory PR numbers must be strictly increasing: {} then {}",
                pair[0].pr,
                pair[1].pr
            );
        }
        for e in &traj {
            assert!(e.sgt_speedup_pct > 0, "{}: zero speedup", e.file);
        }
        let text = render_trajectory(&traj);
        assert!(text.contains("PR 3"));
    }

    #[test]
    fn trajectory_validation_rejects_bad_reports() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json(
            "{\"schema\":\"bpush-bench-v1\",\"seed\":1,\"quick\":true,\
             \"substrate\":[],\"sgt_speedup_pct\":5,\"methods\":[]}"
        )
        .is_err());
        let good = render_json(&BenchReport {
            seed: 7,
            quick: true,
            substrate: vec![SubstrateBench {
                name: "sgt-substrate-interned".to_owned(),
                iters: 3,
                total_ns: 300,
                ns_per_iter: 100,
            }],
            sgt_speedup_pct: 250,
            methods: vec![MethodBench {
                method: "sgt".to_owned(),
                wall_ns: 42,
                queries: 10,
                committed: 9,
            }],
        });
        assert_eq!(validate_bench_json(&good), Ok((true, 250)));
    }

    #[test]
    fn substrate_workloads_agree_between_implementations() {
        let interned = substrate_workload!(SerializationGraph, 60, 16);
        let baseline = substrate_workload!(BaselineGraph, 60, 16);
        assert_eq!(interned, baseline);
        assert_ne!(interned, 0);
    }
}
