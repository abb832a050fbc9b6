//! Figure 10: time profile visualization — where each method spends its query time
//! (candidate verification, table lookup, lower bound computation, other) at about 90%
//! recall on Cifar-10 and Sun.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_core::P2hIndex;
use p2h_data::profile_catalog;
use p2h_eval::{budget_for_recall, time_profile};
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

const TARGET_RECALL: f64 = 0.9;

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "# Figure 10 — query time profile at ≈{:.0}% recall (scale = {}, k = {})\n",
        TARGET_RECALL * 100.0,
        cfg.scale,
        cfg.k
    );

    let mut rows = Vec::new();
    for entry in profile_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig10] {}: n = {}", workload.name, workload.points.len());

        let ball = BallTreeBuilder::new(100).build(&workload.points).unwrap();
        let bc = BcTreeBuilder::new(100).build(&workload.points).unwrap();
        let nh = NhIndex::build(&workload.points, NhParams::new(4, 16)).unwrap();
        let fh = FhIndex::build(&workload.points, FhParams::new(4, 16, 4)).unwrap();
        let methods: [(&dyn P2hIndex, &str); 4] =
            [(&bc, "BC"), (&ball, "Ball"), (&fh, "FH"), (&nh, "NH")];
        let budgets = budget_ladder(workload.points.len());

        for (index, label) in methods {
            // Find the budget reaching the target recall, then profile at that budget.
            let eval = budget_for_recall(
                index,
                label,
                &workload.queries,
                &workload.ground_truth,
                cfg.k,
                TARGET_RECALL,
                &budgets,
            )
            .expect("non-empty budget ladder");
            let profile = time_profile(index, &workload.queries, cfg.k, eval.candidate_limit);
            rows.push(vec![
                workload.name.clone(),
                label.to_string(),
                format!("{:.2}", eval.recall_pct()),
                format!("{:.4}", profile.verification_ms),
                format!("{:.4}", profile.lookup_ms),
                format!("{:.4}", profile.bounds_ms),
                format!("{:.4}", profile.other_ms),
                format!("{:.4}", profile.total_ms()),
            ]);
        }
    }

    emit(
        &cfg,
        "fig10_time_profile",
        &[
            "Data Set",
            "Method",
            "Recall (%)",
            "Verification (ms)",
            "Table Lookup (ms)",
            "Lower Bounds (ms)",
            "Others (ms)",
            "Total (ms)",
        ],
        &rows,
    );
}
