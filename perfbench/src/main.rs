//! One command for the benchmark of the cq-fine workspace.
//!
//! ```text
//! cq-perfbench --workload <serve|answers|churn|bulk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures end-to-end metrics through the
//! public wire and `Engine` APIs; with `--trace 1` it replays the same
//! operations split into calls to each layer and reports per-layer self
//! times and counters.  Outputs are checked against oracles outside the
//! measured window.  Human-readable notes come first; the last line of
//! standard output is the JSON result.  A disagreement with an oracle
//! exits with code 1.

mod answers;
mod bulk;
mod churn;
mod common;
mod layers;
mod metrics;
mod runner;
mod serve;
mod trace;

use runner::Report;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    macro_rules! engine_workload {
        ($w:expr) => {{
            let w = $w;
            println!("{}", w.describe());
            if args.trace {
                runner::trace(&w, args.seconds)
            } else {
                runner::measure(&w, args.seconds)
            }
        }};
    }
    Ok(match args.workload.as_str() {
        "serve" => {
            let w = serve::Serve::new(args.seed);
            println!("{}", w.describe());
            if args.trace {
                w.trace(args.seconds)
            } else {
                w.measure(args.seconds)
            }
        }
        "answers" => engine_workload!(answers::Answers::new(args.seed)),
        "churn" => engine_workload!(churn::Churn::new(args.seed)),
        "bulk" => engine_workload!(bulk::Bulk::new(args.seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// A JSON number: finite values as measured, with all their digits.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("  {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            println!("  {name:<34} {:>16.6} {}", m.value, m.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
