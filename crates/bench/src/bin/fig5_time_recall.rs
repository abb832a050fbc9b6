//! Figure 5: query time vs recall curves of BC-Tree, Ball-Tree, FH and NH for top-10
//! queries on every (stand-in) data set.
//!
//! The paper's claim: the trees are about 1.1–10× faster than the better of NH and FH at
//! matched recall on most data sets, with the advantage largest below 60% recall.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_core::P2hIndex;
use p2h_data::paper_catalog;
use p2h_eval::sweep_budgets;
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "# Figure 5 — query time vs recall, k = {} (scale = {}, {} queries per data set)\n",
        cfg.k, cfg.scale, cfg.queries
    );

    let mut rows = Vec::new();
    for entry in paper_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig5] {}: n = {}", workload.name, workload.points.len());

        let ball = BallTreeBuilder::new(100).build(&workload.points).unwrap();
        let bc = BcTreeBuilder::new(100).build(&workload.points).unwrap();
        let nh = NhIndex::build(&workload.points, NhParams::new(4, 16)).unwrap();
        let fh = FhIndex::build(&workload.points, FhParams::new(4, 16, 4)).unwrap();
        let methods: [(&dyn P2hIndex, &str); 4] =
            [(&bc, "BC-Tree"), (&ball, "Ball-Tree"), (&fh, "FH"), (&nh, "NH")];

        let budgets = budget_ladder(workload.points.len());
        for (index, label) in methods {
            for eval in sweep_budgets(
                index,
                label,
                &workload.queries,
                &workload.ground_truth,
                cfg.k,
                &budgets,
            ) {
                rows.push(vec![
                    workload.name.clone(),
                    label.to_string(),
                    eval.candidate_limit.unwrap_or(0).to_string(),
                    format!("{:.2}", eval.recall_pct()),
                    format!("{:.4}", eval.avg_query_time_ms),
                ]);
            }
        }
    }

    emit(
        &cfg,
        "fig5_time_recall",
        &["Data Set", "Method", "Budget", "Recall (%)", "Query Time (ms)"],
        &rows,
    );
}
