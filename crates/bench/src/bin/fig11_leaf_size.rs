//! Figure 11: the impact of the maximum leaf size N0 on BC-Tree's query-time/recall
//! trade-off (the parameter-setting guidance experiment of the paper).

use p2h_balltree::BcTreeBuilder;
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_data::paper_catalog;
use p2h_eval::sweep_budgets;

const LEAF_SIZES: [usize; 7] = [100, 200, 500, 1_000, 2_000, 5_000, 10_000];

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "# Figure 11 — impact of the leaf size N0 on BC-Tree (scale = {}, k = {})\n",
        cfg.scale, cfg.k
    );

    let mut rows = Vec::new();
    for entry in paper_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig11] {}: n = {}", workload.name, workload.points.len());
        let budgets = budget_ladder(workload.points.len());

        for leaf_size in LEAF_SIZES {
            if leaf_size >= workload.points.len() {
                continue;
            }
            let bc = BcTreeBuilder::new(leaf_size).build(&workload.points).unwrap();
            for eval in sweep_budgets(
                &bc,
                &format!("BC-Tree (N0={leaf_size})"),
                &workload.queries,
                &workload.ground_truth,
                cfg.k,
                &budgets,
            ) {
                rows.push(vec![
                    workload.name.clone(),
                    leaf_size.to_string(),
                    eval.candidate_limit.unwrap_or(0).to_string(),
                    format!("{:.2}", eval.recall_pct()),
                    format!("{:.4}", eval.avg_query_time_ms),
                ]);
            }
        }
    }

    emit(
        &cfg,
        "fig11_leaf_size",
        &["Data Set", "N0", "Budget", "Recall (%)", "Query Time (ms)"],
        &rows,
    );
}
