//! Reduces a traced run to the per-layer metrics, checks that the
//! layers account for the traced wall time, and writes the spans.

use std::fmt::Write as _;

use crate::replica::{ShardTally, TracedRun};
use crate::report::{json_str, quantile, Metrics};
use crate::workload::Workload;

/// The metrics that are counts of work and must repeat exactly.
const COUNTS: [&str; 7] = [
    "server.cycles",
    "protocol.controls",
    "protocol.reads",
    "audit.readsets",
    "codec.calls",
    "codec.bytes_per_cycle",
    "runner.server_cycles_total",
];

pub fn counts(m: &Metrics) -> Vec<(&'static str, f64)> {
    m.entries
        .iter()
        .filter(|(n, _, _)| COUNTS.contains(n))
        .map(|&(n, v, _)| (n, v))
        .collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

fn pooled(shards: &[ShardTally], f: impl Fn(&ShardTally) -> &Vec<u64>) -> Vec<u64> {
    shards.iter().flat_map(|s| f(s).iter().copied()).collect()
}

pub fn layer_metrics(w: Workload, run: &TracedRun) -> Result<Metrics, String> {
    let shards = &run.shards;
    let sum = |f: fn(&ShardTally) -> u64| shards.iter().map(f).sum::<u64>();
    let shard_busy = sum(|s| s.wall_ns);
    let server = sum(|s| s.server_ns);
    let executor = sum(|s| s.executor_ns);
    let stack = sum(|s| s.stack_ns);
    let control = sum(|s| s.protocol_control_ns);
    let read = sum(|s| s.protocol_read_ns);
    let codec = sum(|s| s.codec_ns);
    let monitor = sum(|s| s.monitor_ns);
    let audit = sum(|s| s.audit_ns);
    let cycles_total = sum(|s| s.server_cycles);
    // The layers are disjoint intervals inside each shard's wall time,
    // so the remainder can never be negative, and the protocol stack
    // must split exactly into protocol, codec and monitor time.
    let executor_self = executor
        .checked_sub(stack)
        .ok_or("protocol stack time exceeds executor time")?;
    let other = shard_busy
        .checked_sub(server + executor + audit)
        .ok_or("layer times exceed the traced wall time")?;
    if control + read + codec + monitor != stack {
        return Err("protocol, codec and monitor time do not add up to the probed stack".into());
    }
    if server + executor_self + control + read + codec + monitor + audit + other != shard_busy {
        return Err("layer busy times do not sum to the traced wall time".into());
    }

    let mut m = Metrics::default();
    let mut server_cycles = pooled(shards, |s| &s.server_cycle_ns);
    m.put("server.busy_s", secs(server), "s");
    m.put(
        "server.cycle_us_p50",
        quantile(&mut server_cycles, 0.5) / 1e3,
        "us",
    );
    m.put(
        "server.cycle_us_p99",
        quantile(&mut server_cycles, 0.99) / 1e3,
        "us",
    );
    let longest = shards.iter().map(|s| s.server_cycles).max().unwrap_or(0);
    m.put("server.cycles", longest as f64, "count");

    let codec_calls = sum(|s| s.codec_calls);
    let codec_bytes = sum(|s| s.codec_bytes);
    m.put("codec.busy_s", secs(codec), "s");
    m.put("codec.calls", codec_calls as f64, "count");
    m.put(
        "codec.bytes_per_cycle",
        if codec_bytes > 0 {
            codec_bytes as f64 / cycles_total as f64
        } else {
            0.0
        },
        "B/cycle",
    );

    let mut controls = pooled(shards, |s| &s.control_samples);
    let reads = sum(|s| s.reads);
    m.put("protocol.control_busy_s", secs(control), "s");
    m.put(
        "protocol.control_us_p50",
        quantile(&mut controls, 0.5) / 1e3,
        "us",
    );
    m.put(
        "protocol.control_us_p99",
        quantile(&mut controls, 0.99) / 1e3,
        "us",
    );
    m.put("protocol.read_busy_s", secs(read), "s");
    m.put("protocol.controls", sum(|s| s.controls) as f64, "count");
    m.put("protocol.reads", reads as f64, "count");
    m.put(
        "protocol.read_accept_pct",
        pct(sum(|s| s.accepted) as f64, reads as f64),
        "%",
    );
    m.put(
        "sgraph.peak_nodes",
        run.metrics.peak_graph_nodes as f64,
        "count",
    );
    m.put(
        "sgraph.peak_edges",
        run.metrics.peak_graph_edges as f64,
        "count",
    );

    let mut client_cycles = pooled(shards, |s| &s.client_cycle_ns);
    let lookups = sum(|s| s.cache_lookups);
    m.put("executor.busy_s", secs(executor), "s");
    m.put("executor.self_s", secs(executor_self), "s");
    m.put(
        "executor.client_cycle_us_p50",
        quantile(&mut client_cycles, 0.5) / 1e3,
        "us",
    );
    m.put(
        "executor.client_cycle_us_p99",
        quantile(&mut client_cycles, 0.99) / 1e3,
        "us",
    );
    m.put(
        "cache.hit_pct",
        pct(sum(|s| s.cache_hits) as f64, lookups as f64),
        "%",
    );
    m.put("cache.lookups", lookups as f64, "count");

    m.put("audit.busy_s", secs(audit), "s");
    m.put("audit.share_pct", pct(audit as f64, shard_busy as f64), "%");
    m.put("audit.readsets", sum(|s| s.audit_readsets) as f64, "count");
    m.put(
        "audit.graph_nodes",
        sum(|s| s.audit_graph_nodes) as f64,
        "count",
    );

    m.put("monitor.busy_s", secs(monitor), "s");
    m.put(
        "monitor.share_of_protocol_pct",
        pct(monitor as f64, (control + read) as f64),
        "%",
    );

    let workers = w.workers().clamp(1, shards.len().max(1));
    m.put("runner.shards", shards.len() as f64, "count");
    m.put("runner.workers", workers as f64, "count");
    m.put("runner.server_cycles_total", cycles_total as f64, "count");
    m.put("runner.shard_busy_s", secs(shard_busy), "s");
    m.put(
        "runner.parallel_eff_pct",
        pct(secs(shard_busy), workers as f64 * run.wall_s),
        "%",
    );
    m.put("sim.other_s", secs(other), "s");
    Ok(m)
}

/// Writes the traced run's spans as a Chrome trace (one lane per
/// shard) to `.bench_out/<workload>-<seed>-spans.json` under the
/// working directory.
pub fn write_spans(w: Workload, seed: u64, run: &TracedRun) -> std::io::Result<()> {
    let mut body = String::from("{\"traceEvents\": [");
    let mut first = true;
    for span in run.shards.iter().flat_map(|s| &s.spans) {
        if !first {
            body.push_str(",\n");
        }
        first = false;
        let _ = write!(
            body,
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
            json_str(span.name),
            span.shard,
            span.start_ns as f64 / 1e3,
            span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3
        );
    }
    body.push_str("]}\n");
    std::fs::create_dir_all(".bench_out")?;
    std::fs::write(
        format!(".bench_out/{}-{seed:#x}-spans.json", w.name()),
        body,
    )
}
