//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <paper_cold|adhoc_join|trickle_warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--server-bin <rc_serve>] [--work-dir <dir>]
//! ```
//!
//! Prints a human-readable summary to stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits non-zero when any request fails or any answer is wrong.

use rc_perfbench::stats::Summary;
use rc_perfbench::wire::ServerKind;
use rc_perfbench::{run, Config, Metric, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--server-bin <path>] [--work-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut server_bin: Option<PathBuf> = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed needs a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace is 0 or 1"),
            },
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let mut cfg = Config::new(workload, seed);
    cfg.seconds = seconds;
    cfg.trace = trace;
    if let Some(dir) = work_dir {
        cfg.work_dir = dir;
    }
    if workload != Workload::PaperCold {
        let Some(bin) = server_bin else {
            return usage("the wire workloads need --server-bin");
        };
        cfg.server = ServerKind::Spawn(bin);
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let o = &report.outcome;
    eprintln!(
        "{} seed {}: query latency us {} | mutate latency us {} | setup s {}",
        workload.name(),
        seed,
        Summary::of(&o.query_us()),
        Summary::of(&o.mutate_us()),
        Summary::of(&o.setup_s),
    );
    eprintln!(
        "attempted {} failed {} (failed_frac {}) wrong {} | cache {:?}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.wrong,
        o.cache
    );
    let metrics: Vec<Metric> = match &report.layers {
        Some(layers) => layers.clone(),
        None => report.end_to_end(),
    };
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // `+ 0.0` turns a negative zero into zero.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        o.attempted,
        o.failed,
        body.join(", ")
    );
    if report.correct() && o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
