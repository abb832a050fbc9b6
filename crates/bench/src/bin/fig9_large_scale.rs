//! Figure 9: query performance on the large-scale data sets (the scaled stand-ins for
//! Deep100M and Sift100M), plus the corresponding Table III rows.
//!
//! At `--scale 1.0` each stand-in has 2,000,000 points; the default scale keeps the run
//! in the minutes range. The paper's observation — the trees' speedup over NH/FH is
//! largest on the biggest data sets, especially below 40% recall — should be visible at
//! any scale.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_core::P2hIndex;
use p2h_data::large_scale_catalog;
use p2h_eval::{measure_build, sweep_budgets};
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

fn main() {
    let cfg = BenchConfig::from_args();
    println!("# Figure 9 — large-scale data sets (scale = {}, k = {})\n", cfg.scale, cfg.k);

    let mut index_rows = Vec::new();
    let mut curve_rows = Vec::new();
    for entry in large_scale_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig9] {}: n = {}", workload.name, workload.points.len());

        let (ball, ball_report) = measure_build("Ball-Tree", || {
            BallTreeBuilder::new(100).build(&workload.points).unwrap()
        });
        let (bc, bc_report) =
            measure_build("BC-Tree", || BcTreeBuilder::new(100).build(&workload.points).unwrap());
        let (nh, nh_report) = measure_build("NH (λ=4d)", || {
            NhIndex::build(&workload.points, NhParams::new(4, 16)).unwrap()
        });
        let (fh, fh_report) = measure_build("FH (λ=4d)", || {
            FhIndex::build(&workload.points, FhParams::new(4, 16, 4)).unwrap()
        });
        for report in [&bc_report, &ball_report, &nh_report, &fh_report] {
            index_rows.push(vec![
                workload.name.clone(),
                report.label.clone(),
                format!("{:.3}", report.build_time_s),
                format!("{:.2}", report.index_size_mb()),
            ]);
        }

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
                curve_rows.push(vec![
                    workload.name.clone(),
                    label.to_string(),
                    eval.candidate_limit.unwrap_or(0).to_string(),
                    format!("{:.2}", eval.recall_pct()),
                    format!("{:.4}", eval.avg_query_time_ms),
                ]);
            }
        }
    }

    println!("## Indexing overhead (Table III, large-scale rows)\n");
    emit(
        &cfg,
        "fig9_large_scale_indexing",
        &["Data Set", "Method", "Indexing Time (s)", "Index Size (MiB)"],
        &index_rows,
    );
    println!("## Query time vs recall\n");
    emit(
        &cfg,
        "fig9_large_scale",
        &["Data Set", "Method", "Budget", "Recall (%)", "Query Time (ms)"],
        &curve_rows,
    );
}
