//! Long-running randomized consistency soak: hammers every method with
//! random configurations and verifies that not a single committed readset
//! is ever inconsistent. Complements the bounded proptest suites.
//!
//! ```text
//! soak [ITERATIONS] [--monitors] [--capture-dir DIR]   # default 50
//! ```
//!
//! With `--monitors`, every run also carries the online invariant
//! monitors and a flight recorder: a monitor trip fails the soak and
//! writes the `bpush-capture-v1` capture under `--capture-dir` (default
//! `monitor-captures/`) for `cargo xtask explain`.
//!
//! Every configuration runs twice per method: struct-fed, then wire-fed
//! (each cycle's control segment encoded, framed and decoded once, and
//! every client hearing the decoded report). The wire-fed run must
//! reproduce the struct-fed run's deterministic metrics snapshot and
//! monitor verdict exactly; any difference is a codec divergence under
//! the configuration's random wire widths.
//!
//! Exits non-zero on the first violation, printing the offending
//! configuration for reproduction.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports to the terminal"
)]

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bpush_core::Method;
use bpush_obs::Monitors;
use bpush_sim::{monitors_for, CaptureSlot, Simulation};
use bpush_types::{BpushError, CacheConfig, ClientConfig, Granularity, ServerConfig, SimConfig};

fn random_config(rng: &mut StdRng) -> SimConfig {
    let broadcast_size = rng.gen_range(50..600);
    let update_range = rng.gen_range(10..=broadcast_size);
    let read_range = rng.gen_range(10..=broadcast_size);
    let reads_per_query = rng.gen_range(2..=12.min(read_range));
    SimConfig {
        server: ServerConfig {
            broadcast_size,
            update_range,
            server_read_range: broadcast_size,
            theta: rng.gen_range(0.0..1.4),
            offset: rng.gen_range(0..update_range),
            txns_per_cycle: rng.gen_range(1..20),
            updates_per_cycle: rng.gen_range(1..=update_range.min(80)),
            versions_retained: rng.gen_range(1..32),
            items_per_bucket: if rng.gen_range(0..4) == 3 { 4 } else { 1 },
            report_window: rng.gen_range(1..4),
            granularity: if rng.gen_bool(0.25) {
                Granularity::Bucket
            } else {
                Granularity::Item
            },
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range,
            theta: rng.gen_range(0.0..1.4),
            reads_per_query,
            think_time: rng.gen_range(0..8),
            cache: CacheConfig {
                capacity: rng.gen_range(0..60),
                old_version_fraction: rng.gen_range(0.0..0.6),
            },
            has_directory: rng.gen_bool(0.9),
            disconnect_prob: if rng.gen_bool(0.3) {
                rng.gen_range(0.0..0.4)
            } else {
                0.0
            },
            ..ClientConfig::default()
        },
        n_clients: rng.gen_range(1..4),
        queries_per_client: rng.gen_range(4..16),
        warmup_cycles: rng.gen_range(0..4),
        max_cycles: 200_000,
        seed: rng.gen(),
    }
}

/// A simulation of `method` under `config`, wire-fed when asked, carrying
/// the online monitors and a flight recorder when `with_monitors`.
fn build(
    config: &SimConfig,
    method: Method,
    wire_fed: bool,
    with_monitors: bool,
) -> Result<(Simulation, Option<(Monitors, CaptureSlot)>), BpushError> {
    let mut sim = Simulation::new(config.clone(), method)?;
    if wire_fed {
        sim = sim.with_wire_feed();
    }
    if !with_monitors {
        return Ok((sim, None));
    }
    let monitors = monitors_for(config, method);
    let slot = CaptureSlot::new();
    let sim = sim
        .with_monitors(monitors.clone())
        .with_flight_recorder(8, slot.clone());
    Ok((sim, Some((monitors, slot))))
}

/// What one clean run leaves for the struct/wire comparison.
struct Clean {
    queries: u64,
    snapshot: String,
    verdict: Option<String>,
}

/// Runs one simulation and fails on an inconsistent commit or a monitor
/// trip, writing the trip's capture under `capture_dir`.
fn run_checked(
    i: u64,
    method: Method,
    wire_fed: bool,
    config: &SimConfig,
    (sim, watch): (Simulation, Option<(Monitors, CaptureSlot)>),
    capture_dir: &str,
) -> Result<Clean, ExitCode> {
    let feed = if wire_fed { "wire" } else { "struct" };
    let metrics = match sim.run() {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("iteration {i} {method} ({feed}-fed): {e}\n{config:#?}");
            return Err(ExitCode::FAILURE);
        }
    };
    if metrics.violations > 0 {
        eprintln!(
            "iteration {i}: {method} ({feed}-fed) committed {} INCONSISTENT readsets\n{config:#?}",
            metrics.violations
        );
        return Err(ExitCode::FAILURE);
    }
    let verdict = match watch {
        None => None,
        Some((monitors, slot)) => {
            let verdict = monitors.verdict();
            if !verdict.pass() {
                eprintln!(
                    "iteration {i}: {method} ({feed}-fed) tripped its online monitors\n{}\n{config:#?}",
                    verdict.render()
                );
                if let Some(capture) = slot.take() {
                    let suffix = if wire_fed { "-wire" } else { "" };
                    let path = format!("{capture_dir}/soak-{i}-{}{suffix}.capture", method.name());
                    if let Err(e) = std::fs::create_dir_all(capture_dir)
                        .and_then(|()| std::fs::write(&path, capture.render()))
                    {
                        eprintln!("soak: writing {path}: {e}");
                    } else {
                        eprintln!("soak: capture written to {path} (see `cargo xtask explain`)");
                    }
                }
                return Err(ExitCode::FAILURE);
            }
            Some(verdict.render())
        }
    };
    Ok(Clean {
        queries: metrics.queries,
        snapshot: metrics.deterministic_snapshot(),
        verdict,
    })
}

fn main() -> ExitCode {
    let mut iterations: u64 = 50;
    let mut with_monitors = false;
    let mut capture_dir = String::from("monitor-captures");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--monitors" => with_monitors = true,
            "--capture-dir" => match args.next() {
                Some(dir) => capture_dir = dir,
                None => {
                    eprintln!("soak: --capture-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => match other.parse() {
                Ok(n) => iterations = n,
                Err(_) => {
                    eprintln!("soak: unknown argument `{other}`");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let mut rng = StdRng::seed_from_u64(
        std::env::var("SOAK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xDEAD_BEEF),
    );
    let mut total_queries = 0u64;
    for i in 0..iterations {
        let config = random_config(&mut rng);
        for method in Method::ALL {
            let struct_sim = match build(&config, method, false, with_monitors) {
                Ok(built) => built,
                Err(e) => {
                    eprintln!("iteration {i} {method}: rejected config ({e}); skipping");
                    continue;
                }
            };
            let struct_fed = match run_checked(i, method, false, &config, struct_sim, &capture_dir)
            {
                Ok(clean) => clean,
                Err(code) => return code,
            };
            let wire_sim = match build(&config, method, true, with_monitors) {
                Ok(built) => built,
                Err(e) => {
                    eprintln!("iteration {i} {method}: wire-fed build failed ({e})\n{config:#?}");
                    return ExitCode::FAILURE;
                }
            };
            let wire_fed = match run_checked(i, method, true, &config, wire_sim, &capture_dir) {
                Ok(clean) => clean,
                Err(code) => return code,
            };
            if wire_fed.snapshot != struct_fed.snapshot || wire_fed.verdict != struct_fed.verdict {
                eprintln!(
                    "iteration {i}: {method} wire-fed run diverged from the struct-fed run\n\
                     struct: {}\nwire:   {}\n{config:#?}",
                    struct_fed.snapshot, wire_fed.snapshot
                );
                return ExitCode::FAILURE;
            }
            total_queries += struct_fed.queries + wire_fed.queries;
        }
        if (i + 1) % 10 == 0 {
            eprintln!("soak: {}/{iterations} configurations clean", i + 1);
        }
    }
    println!(
        "soak complete: {iterations} configurations x {} methods x struct/wire feeds, \
         {total_queries} queries, 0 violations",
        Method::ALL.len()
    );
    ExitCode::SUCCESS
}
