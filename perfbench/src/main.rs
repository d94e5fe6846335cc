//! The benchmark's command line.
//!
//! ```text
//! perfbench [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! result as one JSON line (the last line of standard output). Without
//! it, runs every workload, each in a child process of its own, and
//! prints one line per workload. `--trace 1` reports the per-layer
//! metrics and writes the Chrome trace to `perfbench/traces/<workload>.json`
//! under the working directory. Exits non-zero when any op fails.

use std::process::{Command, ExitCode};
use std::time::Duration;

use xtuml_perfbench::{run, Config, Scale, WORKLOADS};

/// Where `--trace 1` writes its Chrome traces, under the working
/// directory (the repository root).
const TRACE_DIR: &str = "perfbench/traces";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 12,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Runs every workload in a child process of its own, forwarding each
/// one's result line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .filter(|l| !l.is_empty())
            .unwrap_or("null");
        println!("{{\"workload\": \"{workload}\", \"result\": {line}}}");
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let cfg = Config {
        workload: workload.to_owned(),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        scale: Scale::Full,
    };
    let report = run(&cfg, args.trace)?;
    if let Some(profile) = &report.profile {
        xtuml_obs::check_chrome_trace(profile).map_err(|e| format!("invalid profile: {e}"))?;
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
        let path = format!("{TRACE_DIR}/{workload}.json");
        std::fs::write(&path, profile).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.to_json());
    Ok(report.correct && report.failed == 0)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
