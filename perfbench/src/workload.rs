//! The three benchmark workloads and their untraced pass, which runs
//! each one through the public entry points a user calls:
//! `Simulation::new(..).run()` and `run_sharded_with_workers`.

use std::time::Instant;

use bpush_core::Method;
use bpush_sim::experiments::paper_defaults;
use bpush_sim::{monitors_for, run_sharded_with_workers, Job, MethodMetrics, Simulation};
use bpush_types::config::MultiversionLayout;
use bpush_types::{BpushError, SimConfig};

/// One named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SGT at the paper's Figure-4 defaults, struct-fed, monitored.
    PaperSgt,
    /// inv+cache with thousands of clients per cycle, wire-fed.
    FanoutWire,
    /// mv-caching under 4x the paper's writes, 4 shards on 2 workers.
    WriteheavySharded,
}

/// Input size: `Full` is what the benchmark measures, `Tiny` is the
/// self-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few clients and queries, for the self-tests.
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSgt,
        Workload::FanoutWire,
        Workload::WriteheavySharded,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSgt => "paper-sgt",
            Workload::FanoutWire => "fanout-wire",
            Workload::WriteheavySharded => "writeheavy-sharded",
        }
    }

    pub fn method(self) -> Method {
        match self {
            Workload::PaperSgt => Method::Sgt,
            Workload::FanoutWire => Method::InvalidationCache,
            Workload::WriteheavySharded => Method::MultiversionCaching,
        }
    }

    /// Whether every client's control reports go through the wire codec.
    pub fn wire_fed(self) -> bool {
        self == Workload::FanoutWire
    }

    /// Whether the online invariant monitors are attached.
    pub fn monitored(self) -> bool {
        self == Workload::PaperSgt
    }

    /// Shards the clients are split into (1 = the unsharded simulation).
    pub fn shards(self) -> u32 {
        match self {
            Workload::WriteheavySharded => 4,
            Workload::PaperSgt | Workload::FanoutWire => 1,
        }
    }

    /// Worker threads the shards run on. Fixed, so the work measured
    /// does not depend on the host; the host's core count is recorded
    /// beside every result.
    pub fn workers(self) -> usize {
        match self {
            Workload::WriteheavySharded => 2,
            Workload::PaperSgt | Workload::FanoutWire => 1,
        }
    }

    pub fn config(self, seed: u64, scale: Scale) -> SimConfig {
        let mut c = paper_defaults();
        c.seed = seed;
        match self {
            Workload::PaperSgt => {}
            Workload::FanoutWire => {
                c.n_clients = 4096;
                c.queries_per_client = 10;
            }
            Workload::WriteheavySharded => {
                c.server.updates_per_cycle = 200;
                c.server.txns_per_cycle = 1;
                c.n_clients = 32;
                c.queries_per_client = 200;
            }
        }
        if scale == Scale::Tiny {
            c.n_clients = c.n_clients.min(8);
            c.queries_per_client = c.queries_per_client.min(6);
            c.warmup_cycles = 2;
        }
        c
    }
}

/// How many inputs an untraced run cycles through.
const INPUTS: u64 = 6;

/// The inputs of an untraced run: the workload at `seed` and at
/// `INPUTS - 1` seeds derived from it (SplitMix64 finalizer), so that a
/// run's figures average over several inputs instead of hanging on one.
pub fn inputs(seed: u64) -> Vec<u64> {
    (0..INPUTS)
        .map(|i| {
            if i == 0 {
                return seed;
            }
            let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// One untraced repetition.
#[derive(Debug)]
pub struct UntracedRun {
    /// Building the server, the clients and the monitors, in seconds.
    pub setup_s: f64,
    /// Wall time of the run itself, in seconds.
    pub run_s: f64,
    pub metrics: MethodMetrics,
    /// Monitor violations (monitored workloads only).
    pub monitor_violations: u64,
}

/// Builds the workload's simulation the way a user would.
fn build(
    w: Workload,
    config: SimConfig,
) -> Result<(Simulation, Option<bpush_obs::Monitors>), BpushError> {
    let mut sim = Simulation::new(config.clone(), w.method())?;
    if w.wire_fed() {
        sim = sim.with_wire_feed();
    }
    let monitors = w.monitored().then(|| monitors_for(&config, w.method()));
    if let Some(m) = &monitors {
        sim = sim.with_monitors(m.clone());
    }
    Ok((sim, monitors))
}

/// Times set-up alone: for the unsharded workloads the simulation a
/// run would use, for the sharded one every shard's simulation.
pub fn setup_only(w: Workload, config: &SimConfig) -> Result<f64, BpushError> {
    let started = Instant::now();
    if w.shards() == 1 {
        let built = build(w, config.clone())?;
        let setup_s = started.elapsed().as_secs_f64();
        drop(std::hint::black_box(built));
        return Ok(setup_s);
    }
    let mut shards = Vec::new();
    for range in shard_bounds(config.n_clients, w.shards()) {
        shards.push(Simulation::with_client_range(
            config.clone(),
            w.method(),
            MultiversionLayout::Overflow,
            range,
        )?);
    }
    let setup_s = started.elapsed().as_secs_f64();
    drop(std::hint::black_box(shards));
    Ok(setup_s)
}

/// One untraced repetition through the public entry points.
pub fn run_untraced(w: Workload, config: &SimConfig) -> Result<UntracedRun, BpushError> {
    if w.shards() > 1 {
        // `run_sharded_with_workers` builds its shards inside the call,
        // so its set-up is timed separately on identical shards.
        let setup_s = setup_only(w, config)?;
        let job = Job::new(w.method(), config.clone());
        let started = Instant::now();
        let metrics = run_sharded_with_workers(&job, w.shards(), w.workers())?;
        let run_s = started.elapsed().as_secs_f64();
        return Ok(UntracedRun {
            setup_s,
            run_s,
            metrics,
            monitor_violations: 0,
        });
    }
    let started = Instant::now();
    let (sim, monitors) = build(w, config.clone())?;
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let metrics = sim.run()?;
    let run_s = started.elapsed().as_secs_f64();
    let monitor_violations = monitors.map_or(0, |m| {
        let v = m.verdict();
        v.violations.len() as u64 + v.violations_dropped
    });
    Ok(UntracedRun {
        setup_s,
        run_s,
        metrics,
        monitor_violations,
    })
}

/// The client ranges `run_sharded_with_workers` gives its shards.
pub fn shard_bounds(n_clients: u32, shards: u32) -> Vec<std::ops::Range<u32>> {
    let shards = shards.clamp(1, n_clients.max(1));
    let bound = |s: u32| (u64::from(n_clients) * u64::from(s) / u64::from(shards)) as u32;
    (0..shards)
        .map(|s| bound(s)..bound(s + 1))
        .filter(|r| !r.is_empty())
        .collect()
}
