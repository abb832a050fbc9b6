//! `p2h-benchmark` — the repository's benchmark: five named workloads, nine
//! end-to-end metrics and an outside-in layer budget. See `benchmark/README.md`.
//!
//! ```text
//! p2h-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! p2h-benchmark run [--seed N] [--seconds S] [--repeat R] [--smoke] [--out DIR]
//! p2h-benchmark compare BASELINE.json CANDIDATE.json
//! ```

mod alloc;
mod catalog;
mod compare;
mod host;
mod json;
mod runner;
mod schedule;
mod stats;
mod suite;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use runner::{Outcome, RunConfig};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  p2h-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  p2h-benchmark run [--seed N] [--seconds S] [--repeat R] [--smoke] [--out DIR]
  p2h-benchmark compare BASELINE.json CANDIDATE.json
workloads: scan-bound prune-bound front-small router-fanout live-rounds";

/// Default directory for result files, traces and temporary stores.
pub const DEFAULT_OUT: &str = ".bench_out";
/// Default length of one timed window, the `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Timed window under `--smoke`.
pub const SMOKE_SECONDS: f64 = 0.4;

/// Flags shared by the single-pass mode and `run`.
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub out: PathBuf,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            repeat: 1,
            out: PathBuf::from(DEFAULT_OUT),
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => flags.workload = Some(value()?.clone()),
                "--seed" => flags.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must lie in (0, 600]".into());
                    }
                    flags.seconds = Some(seconds);
                }
                "--trace" => {
                    flags.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--repeat" => {
                    flags.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if !(1..=50).contains(&flags.repeat) {
                        return Err("--repeat must lie in 1..=50".into());
                    }
                }
                "--out" => flags.out = PathBuf::from(value()?),
                "--smoke" => flags.smoke = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(flags)
    }

    pub fn window_seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS })
    }
}

/// The single pass the outside driver invokes: one workload, traced or not. Prints
/// every metric by name with its unit, then a `detail` line, then — as the last line —
/// the result object.
fn single_pass(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = catalog::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let config = RunConfig {
        workload,
        seed: flags.seed,
        seconds: flags.window_seconds(),
        trace: flags.trace,
        scale: if flags.smoke { catalog::SMOKE } else { catalog::FULL },
        out: flags.out.clone(),
    };
    let outcome = runner::run(&config)?;
    print_outcome(workload.name, &outcome);
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    for (name, value, unit) in &outcome.metrics {
        println!("{workload:<14} {name:<36} {value:>16.4} {unit}");
    }
    println!("detail {}", outcome.detail.render());
    let metrics = Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
        (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
    }));
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}

fn main() -> ExitCode {
    // Before any thread exists: the front server reads its load mode from the
    // environment.
    sut::select_mmap_loading();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => Flags::parse(&args[1..]).and_then(|flags| suite::run_all(&flags)),
        Some("compare") => match &args[1..] {
            [baseline, candidate] => compare::compare_files(baseline.as_ref(), candidate.as_ref()),
            _ => Err("compare takes exactly two result files".into()),
        },
        Some(_) => Flags::parse(&args).and_then(|flags| single_pass(&flags)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("p2h-benchmark: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
