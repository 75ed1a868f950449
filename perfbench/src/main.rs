//! The repository benchmark: three workloads, each putting one layer of the
//! ShiDianNao reproduction in front, with host time and modelled time kept
//! apart (see `README.md` beside this crate).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Workloads: `zoo-closed`, `serve-fleet`, `video-gated`.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it records spans around every call into the program,
//! writes them to `perfbench/out/` and reports the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod common;
mod metrics;
mod serve;
mod trace;
mod video;
mod zoo;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::RunConfig;
use metrics::{END_TO_END, PER_LAYER};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <zoo-closed|serve-fleet|video-gated> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// The three workloads.
const WORKLOADS: [&str; 3] = ["zoo-closed", "serve-fleet", "video-gated"];

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 3_600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = RunConfig {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tracer: Tracer::new(args.trace),
    };
    let result = match args.workload {
        "zoo-closed" => zoo::run(&mut cfg),
        "serve-fleet" => serve::run(&mut cfg),
        _ => video::run(&mut cfg),
    };
    let declared = if cfg.tracer.enabled() {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let outcome = match result.and_then(|mut o| o.metrics.complete(declared).map(|()| o)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if cfg.tracer.enabled() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match cfg.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", cfg.tracer.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    print!("{}", outcome.metrics.render());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        assert_eq!(
            args("--workload serve-fleet --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "serve-fleet",
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload zoo-closed --seed x --seconds 1 --trace 0",
            "--workload zoo-closed --seed 1 --seconds 1 --trace 2",
            "--workload zoo-closed --seed 1 --seconds 1",
            "--workload zoo-closed --seed 1 --seconds 1 --trace",
            "--workload zoo-closed --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
