//! The repo benchmark. One process per workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <mem_put|tcp_mix|mem_txn|engine_burst> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! prints every end-to-end metric by name and unit, checks every reply,
//! and ends with one JSON line. `--trace 1` prints the per-layer
//! metrics instead and writes `benchmark/out/trace_<workload>.json`.
//! `--agree` runs two full sets and compares them against the bounds;
//! `--smoke` is a ≤ 20 s pass over all four workloads. See README.md.

mod burst;
mod gen;
mod hist;
mod layers;
mod oracle;
mod pipeline;
mod procstat;
mod report;
mod spec;
mod threaded;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    agree: bool,
    smoke: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        agree: false,
        smoke: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace 1`, `--trace 0`, or a bare `--trace`.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => a.agree = true,
            "--smoke" => a.smoke = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] | --agree | --smoke");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    if args.agree {
        return report::agree(args.seed, args.seconds);
    }
    if args.smoke {
        return report::smoke(args.seed);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("--workload is required (one of: {})", workload_names());
        return ExitCode::from(2);
    };
    if !spec::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        eprintln!("unknown workload {workload} (one of: {})", workload_names());
        return ExitCode::from(2);
    }
    let measured = Duration::from_secs(args.seconds);
    let outcome: Outcome = if args.trace {
        report::run_traced(workload, args.seed, measured)
    } else {
        report::run_end_to_end(workload, args.seed, measured)
    };
    // The result line is last on stdout; everything above it is for people.
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_names() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
    names.join(", ")
}
