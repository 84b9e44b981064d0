//! `perfbench`: the campaign benchmark of the OZZ reproduction.
//!
//! ```text
//! perfbench --workload <steady|discover|triage|patched_pso>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `name = value unit` line per metric and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! re-runs the same work under spans and reports the per-layer metrics.
//! Exits non-zero when a correctness check or the traced run's fidelity
//! gate fails. README.md in this directory explains the workloads and the
//! metrics.

mod alloc;
mod campaign;
mod checks;
mod procfs;
mod report;
mod spans;
mod stats;
mod traced;
mod triage;

use std::process::ExitCode;

use kutil::splitmix64;

use crate::campaign::Build;
use crate::report::{result_json, Outcome, END_TO_END, PER_LAYER};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["steady", "discover", "triage", "patched_pso"];

/// Environment variables that would switch the system off its default
/// paths (executor, memory model). The benchmark measures the defaults
/// only, so it refuses to run with either set.
const REFUSED_ENV: [&str; 2] = ["OZZ_EXEC", "OZZ_MEMMODEL"];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Seconds of untraced measurement: the whole run, or its first half
    /// when the second half re-runs the same work traced.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2024;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Refuses to run when `lookup` finds any of [`REFUSED_ENV`] set.
fn refuse_env(lookup: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    match REFUSED_ENV.iter().find(|v| lookup(v).is_some()) {
        Some(v) => Err(format!(
            "{v} is set; the benchmark measures the default executor and memory model only"
        )),
        None => Ok(()),
    }
}

/// The `k`-th campaign seed of a run: the workload seed itself first, then
/// its SplitMix64 chain (the convention sharded campaigns use).
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    let mut sm = seed;
    let mut derived = seed;
    for _ in 0..k {
        derived = splitmix64(&mut sm);
    }
    derived
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "steady" => campaign::run_long(args, &Build::all_bugs_tso()),
        "patched_pso" => campaign::run_long(args, &Build::patched_pso()),
        "discover" => campaign::run_discover(args),
        "triage" => triage::run_triage(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = refuse_env(|v| std::env::var(v).ok())
        .and_then(|()| parse_args(&argv))
        .and_then(|args| {
            alloc::pin()?;
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload, args.seed, args.seconds, args.trace as u8,
            );
            let outcome = run(&args)?;
            let metrics = if args.trace {
                outcome.metrics(&PER_LAYER, true)?
            } else {
                outcome.metrics(&END_TO_END, false)?
            };
            Ok((outcome, metrics))
        });
    let (outcome, metrics) = match result {
        Ok(r) => r,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_ratio = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for why in &outcome.problems {
        println!("FAILED: {why}");
    }
    println!("{}", result_json(&outcome, &metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload triage --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "triage".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        let d = parse_args(&argv("--workload steady")).unwrap();
        assert_eq!((d.seed, d.trace), (2024, false));
        for bad in [
            "",
            "--workload nope",
            "--workload steady --seed x",
            "--workload steady --seconds 0",
            "--workload steady --trace 2",
            "--workload steady --seed",
            "--workload steady --verbose 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn refuses_executor_and_memory_model_overrides() {
        assert!(refuse_env(|_| None).is_ok());
        for var in REFUSED_ENV {
            let set = |v: &str| (v == var).then(|| "x".to_string());
            let err = refuse_env(set).unwrap_err();
            assert!(err.contains(var), "{err}");
        }
        // Unrelated variables are fine.
        assert!(refuse_env(|v| (v == "OZZ_EVENTS").then(String::new)).is_ok());
    }

    #[test]
    fn stream_seeds_start_with_the_workload_seed() {
        assert_eq!(stream_seed(2024, 0), 2024);
        let mut sm = 2024;
        assert_eq!(stream_seed(2024, 1), splitmix64(&mut sm));
        assert_eq!(stream_seed(2024, 2), splitmix64(&mut sm));
    }
}
