//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--quick] [--csv DIR] [EXPERIMENT ...]
//! ```
//!
//! With no experiment ids, runs all of them (see `--list`). `--quick`
//! switches to the reduced test-scale parameters; `--csv DIR` writes each
//! table as `DIR/<id>.csv` besides printing it.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool reports to the terminal"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use bpush_sim::experiments::{self, Scale};

struct Args {
    scale: Scale,
    csv_dir: Option<PathBuf>,
    extensions: bool,
    plot: bool,
    experiments: Vec<String>,
}

fn usage() -> &'static str {
    "usage: reproduce [--quick] [--csv DIR] [--list] [--extensions] [--plot] [EXPERIMENT ...]\n\
     default set: fig5_left fig5_right fig6 fig7 fig8_left fig8_right table1 disconnect\n\
     --extensions adds: ablation_layout ablation_read_order ablation_cache \
ablation_granularity disks tuning"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Paper,
        csv_dir: None,
        extensions: false,
        plot: false,
        experiments: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--extensions" => args.extensions = true,
            "--plot" => args.plot = true,
            "--csv" => {
                let dir = iter.next().ok_or("--csv requires a directory")?;
                args.csv_dir = Some(PathBuf::from(dir));
            }
            "--list" => {
                for id in experiments::ALL_EXPERIMENTS {
                    println!("{id}");
                }
                for id in experiments::EXTENSION_EXPERIMENTS {
                    println!("{id} (extension)");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()));
            }
            id => args.experiments.push(id.to_owned()),
        }
    }
    if args.experiments.is_empty() {
        args.experiments = experiments::ALL_EXPERIMENTS
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
    }
    if args.extensions {
        args.experiments.extend(
            experiments::EXTENSION_EXPERIMENTS
                .iter()
                .map(|s| (*s).to_owned()),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for id in &args.experiments {
        eprintln!("running {id} ({:?} scale)...", args.scale);
        let tables = match experiments::run(id, args.scale) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{id}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for table in tables {
            println!("{table}");
            if args.plot {
                println!("{}", bpush_sim::chart::render(&table, 64, 16));
            }
            if let Some(dir) = &args.csv_dir {
                let path = dir.join(format!("{}.csv", table.id));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
