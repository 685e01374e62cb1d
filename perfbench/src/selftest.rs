//! Tiny-scale self-tests of every workload, traced and untraced, so the
//! benchmark cannot rot silently. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::layers::{counts, layer_metrics};
use crate::replica::run_traced;
use crate::workload::{inputs, run_untraced, Scale, Workload};
use crate::{golden, parse_args, traced_pass, untraced_pass, HOLDOUT_SEED, PAPER_SEED};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The metric names listed in one section of `BENCHMARK.json`.
fn declared(section: &str, next: Option<&str>) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = next
        .and_then(|n| {
            BENCHMARK_JSON[start..]
                .find(&format!("\"{n}\""))
                .map(|i| start + i)
        })
        .unwrap_or(BENCHMARK_JSON.len());
    BENCHMARK_JSON[start..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

fn args(w: Workload, trace: &str) -> crate::Args {
    let argv: Vec<String> = [
        "--workload",
        w.name(),
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    parse_args(&argv).expect("valid arguments")
}

#[test]
fn traced_replica_reproduces_every_workload() {
    for w in Workload::ALL {
        let config = w.config(7, Scale::Tiny);
        let plain = run_untraced(w, &config).expect("untraced run");
        assert_eq!(plain.metrics.violations, 0, "{}", w.name());
        assert_eq!(plain.monitor_violations, 0, "{}", w.name());
        let a = run_traced(w, &config).expect("traced run");
        let b = run_traced(w, &config).expect("traced run");
        for traced in [&a, &b] {
            assert_eq!(
                plain.metrics.deterministic_snapshot(),
                traced.metrics.deterministic_snapshot(),
                "{}: the traced replica diverged",
                w.name()
            );
            assert_eq!(traced.monitor_violations, 0, "{}", w.name());
            assert_eq!(traced.shards.len() as u32, w.shards(), "{}", w.name());
        }
        let (ma, mb) = (
            layer_metrics(w, &a).expect("layers add up"),
            layer_metrics(w, &b).expect("layers add up"),
        );
        assert_eq!(counts(&ma), counts(&mb), "{}: counts must repeat", w.name());
        let codec_calls = ma.get("codec.calls").expect("codec.calls");
        assert_eq!(codec_calls > 0.0, w.wire_fed(), "{}", w.name());
        let monitor = ma.get("monitor.busy_s").expect("monitor.busy_s");
        assert_eq!(monitor > 0.0, w.monitored(), "{}", w.name());
        assert!(a.wall_s > 0.0);
    }
}

#[test]
fn passes_report_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end", Some("per_layer"));
    let per_layer = declared("per_layer", None);
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for w in Workload::ALL {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let a = args(w, trace);
            let out = if a.trace {
                traced_pass(&a)
            } else {
                untraced_pass(&a)
            };
            assert!(
                out.correct,
                "{} trace {trace}: {:?}",
                w.name(),
                out.problems
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            assert!(out.reps >= if a.trace { 2 } else { inputs(7).len() });
            let got: Vec<String> = out
                .metrics
                .entries
                .iter()
                .map(|(n, _, _)| (*n).to_owned())
                .collect();
            assert_eq!(&got, want, "{} trace {trace}", w.name());
            assert!(out.metrics.entries.iter().all(|(_, v, _)| v.is_finite()));
        }
    }
}

#[test]
fn paper_and_holdout_inputs_are_recorded() {
    for w in Workload::ALL {
        for seed in [PAPER_SEED, HOLDOUT_SEED] {
            for input in inputs(seed) {
                assert!(
                    golden::lookup(w, input).is_some(),
                    "{} {input:#x}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for argv in [
        vec!["--workload", "nope"],
        vec!["--trace", "2"],
        vec!["--seed", "x"],
        vec!["--seconds"],
        vec!["--frobnicate", "1"],
    ] {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_args(&argv).is_err(), "{argv:?}");
    }
}
