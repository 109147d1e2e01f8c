//! `qbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero, printing no result line, when the run cannot complete.

use qbench::data::Scale;
use qbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: qbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
        min_rounds: 3,
        tmp_dir: PathBuf::from(".qbench-tmp"),
        out_dir: PathBuf::from(".qbench-out"),
    })
}

/// JSON number text; every metric is finite by construction, but a
/// non-finite value must not produce invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    for line in &out.notes {
        println!("{line}");
    }
    for p in &out.problems {
        eprintln!("problem: {p}");
    }
    if out.metrics.is_empty() || out.attempted == 0 {
        eprintln!("run did not complete");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
