//! Layer-attributed end-to-end benchmark of the bpush simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sgt --seed paper --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced through the public entry
//! points and reports the end-to-end metrics; `--trace 1` alternates
//! untraced runs with the traced replica and reports the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it records the host, the build and the seed.

mod golden;
mod layers;
mod probe;
mod replica;
mod report;
#[cfg(test)]
mod selftest;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bpush_obs::flight::fnv64;
use bpush_sim::MethodMetrics;
use bpush_types::SimConfig;

use crate::report::{median, result_line, Metrics};
use crate::workload::{run_untraced, setup_only, Scale, Workload};

/// The paper seed, the default.
pub const PAPER_SEED: u64 = 0x1999_1cdc;
/// A second seed for checking a claim on inputs it was not tuned on.
pub const HOLDOUT_SEED: u64 = 0x2718_2818;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Print the golden-table lines for this workload's inputs and exit.
    golden_line: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s {
        "paper" => Some(PAPER_SEED),
        "holdout" => Some(HOLDOUT_SEED),
        _ => match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
            None => s.parse().ok(),
        },
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperSgt,
        seed: PAPER_SEED,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        golden_line: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--golden-line" {
            args.golden_line = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
            }
            "--seed" => args.seed = parse_seed(value).ok_or_else(|| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What a pass found: the contract's counts plus the metrics and the
/// details that go on the record line.
#[derive(Debug, Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    reps: usize,
    problems: Vec<String>,
    /// Per-repetition samples of the headline figure, for the record line.
    samples: Vec<f64>,
    /// First snapshot seen per input seed.
    reference: BTreeMap<u64, String>,
    goldens: Goldens,
}

/// How the inputs' snapshots compared with `goldens.txt`.
#[derive(Debug, Default)]
struct Goldens {
    matched: usize,
    unrecorded: usize,
    mismatched: usize,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// A run that returned an error fails every query it would have run.
    fn run_error(&mut self, config: &SimConfig, e: &bpush_types::BpushError) {
        let all = u64::from(config.n_clients) * u64::from(config.queries_per_client);
        self.attempted += all;
        self.failed += all;
        self.fail(format!("run returned an error: {e}"));
    }

    /// The per-run correctness gate: no audit violation, no monitor
    /// violation, and the deterministic snapshot the input always gives:
    /// the recorded one where `goldens.txt` has it, and in any case the
    /// same one every time the input comes round again.
    fn gate(&mut self, args: &Args, input: u64, metrics: &MethodMetrics, monitor: u64) {
        self.attempted += metrics.queries;
        self.failed += metrics.violations + monitor;
        if metrics.violations > 0 {
            let n = metrics.violations;
            self.fail(format!("{n} committed readsets failed the audit"));
        }
        if monitor > 0 {
            self.fail(format!("{monitor} monitor violations"));
        }
        let snapshot = metrics.deterministic_snapshot();
        match self.reference.get(&input) {
            Some(r) if *r != snapshot => {
                self.fail(format!("input {input:#x}: deterministic snapshot changed"));
            }
            Some(_) => {}
            None => {
                if args.scale == Scale::Full {
                    match golden::lookup(args.workload, input) {
                        Some(h) if h == fnv64(snapshot.as_bytes()) => self.goldens.matched += 1,
                        None => self.goldens.unrecorded += 1,
                        Some(_) => {
                            self.goldens.mismatched += 1;
                            self.fail(format!(
                                "input {input:#x}: deterministic snapshot differs from the recorded one"
                            ));
                        }
                    }
                }
                self.reference.insert(input, snapshot);
            }
        }
    }
}

/// The untraced pass: the end-to-end metrics. The run cycles through
/// the workload's inputs until every input has run once and the time is
/// up; the paper's metrics are pooled over the inputs.
fn untraced_pass(args: &Args) -> Outcome {
    let w = args.workload;
    let inputs = workload::inputs(args.seed);
    let mut out = Outcome::new();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut pooled: Option<MethodMetrics> = None;
    let _warm = setup_only(w, &w.config(args.seed, args.scale));
    while out.reps < inputs.len() || started.elapsed().as_secs_f64() < args.seconds {
        let input = inputs[out.reps % inputs.len()];
        let config = w.config(input, args.scale);
        let run = match run_untraced(w, &config) {
            Ok(run) => run,
            Err(e) => {
                out.run_error(&config, &e);
                return out;
            }
        };
        out.gate(args, input, &run.metrics, run.monitor_violations);
        setups.push(run.setup_s);
        rates.push(run.metrics.queries as f64 / run.run_s);
        // Set-up alone, a few times after every run, so `setup_s` is a
        // median over samples spread across the whole run.
        let budget = Instant::now();
        for n in 0.. {
            if n >= 3 && (n >= 200 || budget.elapsed().as_secs_f64() > 0.05 * run.run_s) {
                break;
            }
            match setup_only(w, &config) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    out.run_error(&config, &e);
                    return out;
                }
            }
        }
        if out.reps < inputs.len() {
            match &mut pooled {
                None => pooled = Some(run.metrics),
                Some(acc) => acc.merge(&run.metrics),
            }
        }
        out.reps += 1;
    }
    out.samples = rates.clone();
    let Some(m) = pooled else { return out };
    let m_out = &mut out.metrics;
    m_out.put("setup_s", median(&setups), "s");
    m_out.put("queries_per_s", median(&rates), "1/s");
    m_out.put("peak_rss_mib", report::peak_rss_mib().unwrap_or(0.0), "MiB");
    m_out.put("abort_pct", m.abort_pct(), "%");
    m_out.put("latency_cycles_mean", m.latency_cycles.mean(), "cycles");
    m_out.put("bcast_overhead_pct", m.overhead_pct(), "%");
    m_out.put("tuning_slots_mean", m.tuning_slots.mean(), "slots");
    out
}

/// The traced pass, on the `--seed` input alone: untraced and traced
/// runs alternate, every traced run must reproduce the untraced
/// snapshot and repeat the same counts, and the per-layer metrics are
/// the medians over the traced runs.
fn traced_pass(args: &Args) -> Outcome {
    let w = args.workload;
    let config = w.config(args.seed, args.scale);
    let mut out = Outcome::new();
    let started = Instant::now();
    let mut counts: Option<Vec<(&'static str, f64)>> = None;
    let mut untraced_s = Vec::new();
    let mut per_rep: Vec<Metrics> = Vec::new();
    while per_rep.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let plain = match run_untraced(w, &config) {
            Ok(run) => run,
            Err(e) => {
                out.run_error(&config, &e);
                return out;
            }
        };
        out.gate(args, args.seed, &plain.metrics, plain.monitor_violations);
        // The sharded runner builds its shards inside the timed call.
        untraced_s.push(if w.shards() > 1 {
            plain.run_s
        } else {
            plain.setup_s + plain.run_s
        });

        let traced = match replica::run_traced(w, &config) {
            Ok(t) => t,
            Err(e) => {
                out.run_error(&config, &e);
                return out;
            }
        };
        out.gate(args, args.seed, &traced.metrics, traced.monitor_violations);
        let rep = match layers::layer_metrics(w, &traced) {
            Ok(m) => m,
            Err(problem) => {
                out.fail(problem);
                return out;
            }
        };
        let these = layers::counts(&rep);
        match &counts {
            None => counts = Some(these),
            Some(c) if *c != these => {
                out.fail("traced-run counts changed between repetitions".into())
            }
            Some(_) => {}
        }
        if per_rep.is_empty() && args.scale == Scale::Full {
            if let Err(e) = layers::write_spans(w, args.seed, &traced) {
                eprintln!("perfbench: could not write spans: {e}");
            }
        }
        per_rep.push(rep);
        out.samples.push(traced.wall_s);
        out.reps += 1;
    }
    for (i, &(name, _, unit)) in per_rep[0].entries.iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|m| m.entries[i].1).collect();
        out.metrics.put(name, median(&values), unit);
    }
    let overhead = median(&out.samples) / median(&untraced_s) - 1.0;
    out.metrics.put("trace.overhead_pct", overhead * 100.0, "%");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-sgt|fanout-wire|writeheavy-sharded> \
                 --seed <n|0x..|paper|holdout> --seconds <s> --trace <0|1> [--scale full|tiny] \
                 [--golden-line]"
            );
            return ExitCode::from(2);
        }
    };
    if args.golden_line {
        for input in workload::inputs(args.seed) {
            let config = args.workload.config(input, args.scale);
            match run_untraced(args.workload, &config) {
                Ok(run) => {
                    let hash = fnv64(run.metrics.deterministic_snapshot().as_bytes());
                    println!("{} {input:#x} {hash:016x}", args.workload.name());
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let out = if args.trace {
        traced_pass(&args)
    } else {
        untraced_pass(&args)
    };
    for p in &out.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let problems: Vec<String> = out.problems.iter().map(|p| report::json_str(p)).collect();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seed_hex\": \"{:#x}\", \"trace\": {}, \
         \"seconds\": {}, \"repetitions\": {}, \"goldens\": {{\"matched\": {}, \"unrecorded\": {}, \"mismatched\": {}}}, \"problems\": [{}], \"samples\": [{}], \"host\": {}}}}}",
        report::json_str(args.workload.name()),
        args.seed,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        out.reps,
        out.goldens.matched,
        out.goldens.unrecorded,
        out.goldens.mismatched,
        problems.join(", "),
        out.samples.iter().map(|&x| report::json_num(x)).collect::<Vec<_>>().join(", "),
        report::host_json()
    );
    println!(
        "{}",
        result_line(out.correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
