//! Figure 7: the impact of the branch preference choice (center preference vs lower
//! bound preference) on Ball-Tree and BC-Tree.
//!
//! The paper finds the center preference uniformly better, by roughly 2–100× below 60%
//! recall, because near the root the node-level ball bounds of both children are usually
//! zero and carry no ordering information.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_core::{BranchPreference, P2hIndex, SearchParams};
use p2h_data::paper_catalog;
use p2h_eval::evaluate;

fn main() {
    let cfg = BenchConfig::from_args();
    println!("# Figure 7 — branch preference choice (scale = {}, k = {})\n", cfg.scale, cfg.k);

    let mut rows = Vec::new();
    for entry in paper_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig7] {}: n = {}", workload.name, workload.points.len());

        let ball = BallTreeBuilder::new(100).build(&workload.points).unwrap();
        let bc = BcTreeBuilder::new(100).build(&workload.points).unwrap();
        let methods: [(&dyn P2hIndex, &str); 2] = [(&bc, "BC-Tree"), (&ball, "Ball-Tree")];
        let preferences =
            [(BranchPreference::Center, "Center"), (BranchPreference::LowerBound, "Lower Bound")];

        for (index, method) in methods {
            for (preference, pref_label) in preferences {
                for &budget in &budget_ladder(workload.points.len()) {
                    let params =
                        SearchParams::approximate(cfg.k, budget).with_branch_preference(preference);
                    let eval = evaluate(
                        index,
                        format!("{method} ({pref_label})"),
                        &workload.queries,
                        &workload.ground_truth,
                        &params,
                    );
                    rows.push(vec![
                        workload.name.clone(),
                        method.to_string(),
                        pref_label.to_string(),
                        budget.to_string(),
                        format!("{:.2}", eval.recall_pct()),
                        format!("{:.4}", eval.avg_query_time_ms),
                    ]);
                }
            }
        }
    }

    emit(
        &cfg,
        "fig7_branch_pref",
        &["Data Set", "Method", "Preference", "Budget", "Recall (%)", "Query Time (ms)"],
        &rows,
    );
}
