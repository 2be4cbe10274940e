//! The repository benchmark: one planning workload on a large instance and
//! one open-loop serving workload against an in-process daemon, with a
//! traced run per workload that times each layer's public calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path nwsbench/Cargo.toml -- \
//!     --workload <plan-large|serve-update|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric names and units come from
//! `BENCHMARK.json` there, and state directories and trace files go under
//! `.nwsbench/`. Each workload prints a report (every metric with its unit
//! and sample count, the run's facts and any correctness violation), then
//! one JSON line with the declared end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`). `--workload all` runs every workload
//! untraced and then traced, each in a process of its own so that its
//! peak memory is its own.

mod calib;
mod host;
mod instance;
mod layers;
mod plan;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 2] = ["plan-large", "serve-update"];

/// A seed no benchmark tuning used, for confirming later claims on a
/// second instance of the same shapes.
const HELD_OUT_SEED: u64 = 1_000_003;

/// Where runs keep state directories and trace files.
const SCRATCH: &str = ".nwsbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(42),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_one(workload: &str, args: &Args, trace: bool, root: &Path) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.fact("workload", workload);
    rep.fact("seed", args.seed);
    rep.fact("held_out_seed", HELD_OUT_SEED);
    rep.fact("seconds", args.seconds);
    rep.fact("trace", u8::from(trace));
    rep.fact("nproc", host::nproc());
    rep.fact("rustc", host::RUSTC);
    rep.fact("commit", host::commit());
    match workload {
        "plan-large" => plan::run(args.seed, args.seconds, trace, &mut rep, root),
        "serve-update" => serve::run(args.seed, args.seconds, trace, &mut rep, root)?,
        _ => unreachable!("workload names are checked when parsed"),
    }
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    rep.metric("peak_rss_mb", rss, "MB", 1);
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nwsbench: {e}");
            eprintln!(
                "usage: nwsbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (end_to_end, per_layer) = match report::declared_metrics(Path::new("BENCHMARK.json")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("nwsbench: {e} (run from the repository root)");
            return ExitCode::from(1);
        }
    };
    let root = Path::new(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(root) {
        eprintln!("nwsbench: cannot create {SCRATCH}: {e}");
        return ExitCode::from(1);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let (workload, trace) = (args.workload.as_str(), args.trace);
    let rep = match run_one(workload, &args, trace, root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nwsbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    rep.print(&format!(
        "{workload} seed {} ({})",
        args.seed,
        if trace { "traced" } else { "untraced" }
    ));
    let declared = if trace { &per_layer } else { &end_to_end };
    match rep.result_line(declared) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nwsbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs every workload untraced and then traced, each in a child process
/// of this program, which prints its own report and result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("nwsbench: cannot find this program: {e}");
            return ExitCode::from(1);
        }
    };
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("nwsbench: {workload} --trace {trace} ended with {s}");
                    return ExitCode::from(1);
                }
                Err(e) => {
                    eprintln!("nwsbench: cannot run {workload}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    ExitCode::SUCCESS
}
