//! `compare BASELINE.json CANDIDATE.json`: applies each end-to-end metric's
//! direction and bound to every workload and says, row by row, whether the candidate
//! held. A perf claim is a diff between two result files, not a sentence.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Held,
    /// Better than the baseline by more than the bound — or, where the spread is wider
    /// than the bound, on every single run.
    Improved,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// The recorded run-to-run spread is wider than the bound, or the host's speed
    /// drifted under one of the runs: the pair cannot tell a change from noise, so it is
    /// reported as such and not as unchanged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Held => "held",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Share(f64),
    /// An amount in the metric's own unit, for metrics that repeat exactly for a seed.
    Absolute(f64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub baseline: f64,
    pub candidate: f64,
    /// How much worse the candidate is, in the bound's terms (negative = better).
    pub worse_by: f64,
    pub bound: Bound,
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// The parts of a fingerprint that must match for two result files to be comparable:
/// same machine shape, same kernels, same threads, same inputs, same work.
const FINGERPRINT_KEYS: [&str; 8] = [
    "nproc",
    "kernel_backend",
    "load_mode",
    "seed",
    "seconds",
    "smoke",
    "threads",
    "schedule_hash",
];

fn check_fingerprints(baseline: &Json, candidate: &Json) -> Result<(), String> {
    let a = baseline.get("fingerprint").ok_or("baseline has no fingerprint")?;
    let b = candidate.get("fingerprint").ok_or("candidate has no fingerprint")?;
    let differing: Vec<String> = FINGERPRINT_KEYS
        .iter()
        .filter(|key| a.get(key) != b.get(key))
        .map(|key| {
            let show = |side: &Json| side.get(key).map_or("missing".to_string(), Json::render);
            format!("{key}: {} vs {}", show(a), show(b))
        })
        .collect();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the results are not comparable, their fingerprints differ in {}",
            differing.join("; ")
        ))
    }
}

fn runs(entry: &Json) -> Vec<f64> {
    entry
        .get("runs")
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// `disturbed`: the host's speed drifted under a run on either side.
pub fn judge(
    lower_is_better: bool,
    bound: Bound,
    baseline: f64,
    candidate: f64,
    spread: Option<f64>,
    every_run_better: bool,
    disturbed: bool,
) -> (f64, Verdict) {
    let delta = if lower_is_better { candidate - baseline } else { baseline - candidate };
    // Both in the bound's terms: shares of the baseline, or the metric's own unit.
    let (worse_by, limit, spread) = match bound {
        Bound::Share(share) if baseline != 0.0 => (delta / baseline.abs(), share, spread),
        Bound::Share(share) => (delta, share, spread),
        Bound::Absolute(amount) => (delta, amount, spread.map(|s| s * baseline.abs())),
    };
    let verdict = if disturbed {
        Verdict::Unresolved
    } else if spread.is_some_and(|s| s > limit) {
        // Noise wider than the bound proves nothing, unless every run won.
        if every_run_better && worse_by < 0.0 {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > limit {
        Verdict::Regression
    } else if worse_by < -limit {
        Verdict::Improved
    } else {
        Verdict::Held
    };
    (worse_by, verdict)
}

pub fn compare(baseline: &Json, candidate: &Json) -> Result<Vec<Row>, String> {
    check_fingerprints(baseline, candidate)?;
    let catalog = baseline
        .get("catalog")
        .and_then(|c| c.get("end_to_end"))
        .and_then(Json::as_arr)
        .ok_or("baseline has no metric catalogue")?;
    let workloads =
        baseline.get("workloads").and_then(Json::as_obj).ok_or("baseline has no workloads")?;
    let mut rows = Vec::new();
    for (workload, base) in workloads {
        let cand = candidate
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("candidate has no workload '{workload}'"))?;
        let disturbed =
            [base, cand].iter().any(|w| w.get("unstable").and_then(Json::as_bool) == Some(true));
        for metric in catalog {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let name = field("name");
            let bound =
                metric.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let bound = match metric.get("absolute").and_then(Json::as_bool) {
                Some(true) => Bound::Absolute(bound),
                _ => Bound::Share(bound),
            };
            let entry = |side: &Json| side.get("end_to_end").and_then(|e| e.get(name)).cloned();
            let (Some(a), Some(b)) = (entry(base), entry(cand)) else {
                return Err(format!("{workload}: '{name}' is missing on one side"));
            };
            let value = |e: &Json| e.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                return Err(format!("{workload}: '{name}' has no value on one side"));
            };
            let lower = field("better") == "lower";
            let spreads = [&a, &b].map(|e| e.get("spread").and_then(Json::as_f64));
            let spread = match spreads {
                [Some(x), Some(y)] => Some(x.max(y)),
                [x, y] => x.or(y),
            };
            let (runs_a, runs_b) = (runs(&a), runs(&b));
            let every_run_better = !runs_a.is_empty()
                && !runs_b.is_empty()
                && runs_b.iter().all(|c| runs_a.iter().all(|p| if lower { c < p } else { c > p }));
            let (worse_by, verdict) =
                judge(lower, bound, va, vb, spread, every_run_better, disturbed);
            rows.push(Row {
                workload: workload.clone(),
                metric: name.to_string(),
                unit: field("unit").to_string(),
                baseline: va,
                candidate: vb,
                worse_by,
                bound,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn compare_files(baseline: &Path, candidate: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (baseline, candidate) = (load(baseline)?, load(candidate)?);
    let rows = compare(&baseline, &candidate)?;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound", "spread"
    );
    for row in &rows {
        let (worse_by, bound) = match row.bound {
            Bound::Share(share) => {
                (format!("{:.2}%", row.worse_by * 100.0), format!("{:.1}%", share * 100.0))
            }
            Bound::Absolute(amount) => (format!("{:.4}", row.worse_by), format!("{amount}")),
        };
        println!(
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>9} {:>7} {:>8}  {} ({})",
            row.workload,
            row.metric,
            row.baseline,
            row.candidate,
            worse_by,
            bound,
            row.spread.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
            row.verdict.as_str(),
            row.unit,
        );
    }
    for side in [("baseline", &baseline), ("candidate", &candidate)] {
        for (workload, entry) in side.1.get("workloads").and_then(Json::as_obj).unwrap_or(&[]) {
            if entry.get("unstable").and_then(Json::as_bool) == Some(true) {
                println!(
                    "note: the host's speed drifted under the {} run of {workload}: its rows are unresolved",
                    side.0
                );
            }
        }
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} held, {} improved, {} unresolved, {} regressions",
        rows.len(),
        count(Verdict::Held),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Regression)
    );
    Ok(if count(Verdict::Regression) == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TENTH: Bound = Bound::Share(0.1);

    fn results(seed: f64, qps_runs: &[f64], spread: Option<f64>, unstable: bool) -> Json {
        let qps = Json::obj([
            ("value", Json::Num(crate::stats::median(qps_runs))),
            ("runs", Json::Arr(qps_runs.iter().map(|v| Json::Num(*v)).collect())),
            ("spread", spread.map_or(Json::Null, Json::Num)),
        ]);
        Json::obj([
            ("fingerprint", Json::obj([("nproc", Json::Num(2.0)), ("seed", Json::Num(seed))])),
            (
                "catalog",
                Json::obj([(
                    "end_to_end",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("qps")),
                        ("unit", Json::str("1/s")),
                        ("better", Json::str("higher")),
                        ("bound", Json::Num(0.1)),
                    ])]),
                )]),
            ),
            (
                "workloads",
                Json::obj([(
                    "scan-bound",
                    Json::obj([
                        ("unstable", Json::Bool(unstable)),
                        ("end_to_end", Json::obj([("qps", qps)])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Higher is better: 12% fewer queries per second is a regression at a 10% bound.
        let judged =
            |lower, base, cand, spread| judge(lower, TENTH, base, cand, spread, false, false).1;
        assert_eq!(judged(false, 100.0, 88.0, Some(0.02)), Verdict::Regression);
        assert_eq!(judged(false, 100.0, 95.0, Some(0.02)), Verdict::Held);
        assert_eq!(judged(false, 100.0, 120.0, Some(0.02)), Verdict::Improved);
        // Lower is better: the same numbers read the other way.
        assert_eq!(judged(true, 100.0, 112.0, None), Verdict::Regression);
        assert_eq!(judged(true, 100.0, 88.0, None), Verdict::Improved);
        let (worse_by, _) = judge(true, TENTH, 200.0, 210.0, None, false, false);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn an_absolute_bound_is_in_the_metrics_own_unit() {
        // Recall 0.233 -> 0.175 is 25 % of the baseline but 0.058 of recall: far beyond
        // an absolute 0.001, while 0.2328 -> 0.2325 holds.
        let recall = Bound::Absolute(0.001);
        let judged = |cand| judge(false, recall, 0.2328, cand, Some(0.0), false, false);
        assert_eq!(judged(0.175).1, Verdict::Regression);
        assert_eq!(judged(0.2325).1, Verdict::Held);
        assert_eq!(judged(0.25).1, Verdict::Improved);
        assert!((judged(0.175).0 - 0.0578).abs() < 1e-12);
        // A bound of nothing: any failed operation is a regression.
        let none = Bound::Absolute(0.0);
        assert_eq!(judge(false, none, 1.0, 0.9999, None, false, false).1, Verdict::Regression);
        assert_eq!(judge(false, none, 1.0, 1.0, None, false, false).1, Verdict::Held);
    }

    #[test]
    fn a_drifting_host_leaves_every_row_of_the_workload_unresolved() {
        assert_eq!(
            judge(false, TENTH, 100.0, 80.0, Some(0.02), false, true).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(false, TENTH, 100.0, 150.0, Some(0.02), true, true).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_pair_unresolved() {
        let wide = Some(0.3);
        assert_eq!(judge(false, TENTH, 100.0, 80.0, wide, false, false).1, Verdict::Unresolved);
        assert_eq!(judge(false, TENTH, 100.0, 101.0, wide, false, false).1, Verdict::Unresolved);
        // ...unless every candidate run beat every baseline run.
        assert_eq!(judge(false, TENTH, 100.0, 150.0, wide, true, false).1, Verdict::Improved);
        // Inside the bound and the spread, winning every run by a hair is still "held".
        assert_eq!(judge(false, TENTH, 100.0, 100.1, Some(0.001), true, false).1, Verdict::Held);
    }

    #[test]
    fn whole_files_compare_row_by_row() {
        let base = results(1.0, &[100.0, 102.0, 98.0], Some(0.03), false);
        let slow = results(1.0, &[85.0, 86.0, 84.0], Some(0.02), false);
        let rows = compare(&base, &slow).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert_eq!(rows[0].spread, Some(0.03));
        let same = compare(&base, &base).unwrap();
        assert_eq!(same[0].verdict, Verdict::Held);
        // The same slow numbers from a run the host drifted under prove nothing.
        let disturbed = results(1.0, &[85.0, 86.0, 84.0], Some(0.02), true);
        assert_eq!(compare(&base, &disturbed).unwrap()[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn differing_fingerprints_are_refused() {
        let base = results(1.0, &[100.0], None, false);
        let other_seed = results(2.0, &[100.0], None, false);
        let refusal = compare(&base, &other_seed).unwrap_err();
        assert!(refusal.contains("seed"), "{refusal}");
    }
}
