//! `run`: every workload in a child process of its own (a fresh metrics registry and
//! its own peak RSS), untraced for the end-to-end metrics, then traced for the layer
//! metrics; everything lands in `results.json`.

use std::process::{Command, ExitCode, Stdio};

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::Json;
use crate::stats::{median, spread};
use crate::{host, sut, Flags};

/// What one child pass printed: its result object and its detail object.
struct ChildPass {
    result: Json,
    detail: Json,
}

fn child_pass(flags: &Flags, workload: &str, trace: bool) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.window_seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&flags.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if flags.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(|line| Json::parse(line).ok());
    let detail = lines
        .pop()
        .and_then(|line| line.strip_prefix("detail "))
        .and_then(|text| Json::parse(text).ok());
    for line in &lines {
        println!("{line}");
    }
    match (result, detail) {
        (Some(result), Some(detail)) if result.get("metrics").is_some() => {
            Ok(ChildPass { result, detail })
        }
        _ => Err(format!(
            "{workload} (trace {}) exited with {} and no result",
            u8::from(trace),
            output.status
        )),
    }
}

/// Passes made again at most this often because the host's speed drifted under them.
const DRIFT_RETRIES: usize = 2;

/// A child pass the host held still under, if one of a few tries was; the last try
/// otherwise, still marked unstable.
fn steady_pass(flags: &Flags, workload: &str, trace: bool) -> Result<ChildPass, String> {
    let mut pass = child_pass(flags, workload, trace)?;
    for _ in 0..DRIFT_RETRIES {
        if !flag(&pass, "unstable") {
            break;
        }
        println!("{workload:<14} the host's speed drifted under that pass; making it again");
        pass = child_pass(flags, workload, trace)?;
    }
    Ok(pass)
}

fn metric_value(pass: &ChildPass, name: &str) -> Option<f64> {
    pass.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(pass: &ChildPass, key: &str) -> f64 {
    pass.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn flag(pass: &ChildPass, key: &str) -> bool {
    pass.detail.get(key).and_then(Json::as_bool).unwrap_or(false)
}

pub fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    if flags.workload.is_some() || flags.trace {
        return Err(
            "`run` runs every workload, traced and untraced; drop --workload/--trace".into()
        );
    }
    std::fs::create_dir_all(&flags.out)
        .map_err(|e| format!("create {}: {e}", flags.out.display()))?;
    let mut workloads = Vec::new();
    let mut hashes = Vec::new();
    let mut threads = Vec::new();
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let untraced: Vec<ChildPass> = (0..flags.repeat)
            .map(|_| steady_pass(flags, workload.name, false))
            .collect::<Result<_, _>>()?;
        let traced = steady_pass(flags, workload.name, true)?;

        let end_to_end = Json::obj(END_TO_END.iter().map(|metric| {
            let runs: Vec<f64> =
                untraced.iter().filter_map(|pass| metric_value(pass, metric.name)).collect();
            let entry = Json::obj([
                ("value", Json::Num(median(&runs))),
                ("unit", Json::str(metric.unit)),
                ("runs", Json::Arr(runs.iter().map(|v| Json::Num(*v)).collect())),
                ("spread", spread(&runs).map_or(Json::Null, Json::Num)),
            ]);
            (metric.name, entry)
        }));
        let per_layer = Json::obj(PER_LAYER.iter().map(|metric| {
            let value = metric_value(&traced, metric.name).unwrap_or(0.0);
            (
                metric.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(metric.unit))]),
            )
        }));
        let failed: f64 = untraced.iter().chain([&traced]).map(|p| count(p, "failed")).sum();
        let attempted: f64 = untraced.iter().chain([&traced]).map(|p| count(p, "attempted")).sum();
        // The end-to-end metrics come from the untraced passes alone.
        let unstable = untraced.iter().any(|p| flag(p, "unstable"));
        all_correct &= failed == 0.0;
        if unstable {
            println!(
                "{:<14} UNSTABLE: the host's speed drifted by more than 10% under an untraced pass",
                workload.name
            );
        }

        let first = &untraced[0].detail;
        hashes.push((workload.name, first.get("schedule_hash").cloned().unwrap_or(Json::Null)));
        threads.push((workload.name, first.get("threads").cloned().unwrap_or(Json::Null)));
        let detail_of = |key: &str| first.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            workload.name,
            Json::obj([
                ("why", Json::str(workload.why)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("unstable", Json::Bool(unstable)),
                ("traced_unstable", Json::Bool(flag(&traced, "unstable"))),
                ("latency_samples", detail_of("latency_samples")),
                ("samples_beyond_p95", detail_of("samples_beyond_p95")),
                ("lat_p99_us", detail_of("lat_p99_us")),
                ("checkpoints", detail_of("checkpoints")),
                ("tie_breaks", detail_of("tie_breaks")),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("budget", traced.detail.get("budget").cloned().unwrap_or(Json::Null)),
                ("trace_file", traced.detail.get("trace_file").cloned().unwrap_or(Json::Null)),
            ]),
        ));
        print_budget(workload.name, traced.detail.get("budget"));
    }

    let results = Json::obj([
        (
            "fingerprint",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("kernel_backend", Json::str(sut::kernel_backend())),
                ("load_mode", Json::str(sut::LOAD_MODE)),
                ("rustc", Json::str(host::RUSTC)),
                ("seed", Json::Num(flags.seed as f64)),
                ("seconds", Json::Num(flags.window_seconds())),
                ("smoke", Json::Bool(flags.smoke)),
                ("repeat", Json::Num(flags.repeat as f64)),
                ("threads", Json::obj(threads)),
                ("schedule_hash", Json::obj(hashes)),
            ]),
        ),
        ("catalog", catalog_json()),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = flags.out.join("results.json");
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The bounds a later `compare` applies travel with the results they were run under.
fn catalog_json() -> Json {
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.same_seed_bound.unwrap_or(m.bound))),
            ("absolute", Json::Bool(m.same_seed_bound.is_some())),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ])
    });
    Json::obj([
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

fn print_budget(workload: &str, budget: Option<&Json>) {
    let Some(rows) = budget.and_then(Json::as_arr) else { return };
    println!(
        "{workload:<14} layer budget (mean µs per operation; self = span minus its children):"
    );
    for row in rows {
        let text = |key: &str| row.get(key).and_then(Json::as_str).unwrap_or("-");
        let num = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{workload:<14}   {:<22} under {:<22} span {:>12.1}  self {:>12.1}",
            text("span"),
            text("parent"),
            num("mean_us"),
            num("self_us"),
        );
    }
}
