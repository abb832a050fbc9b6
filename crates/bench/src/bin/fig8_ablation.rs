//! Figure 8: effectiveness of the individual point-level lower bounds of BC-Tree.
//!
//! Compares BC-Tree against BC-Tree-wo-C (no cone bound), BC-Tree-wo-B (no ball bound)
//! and BC-Tree-wo-BC (neither) — query time vs k at about 80% recall, as in the paper.

use p2h_balltree::{BcTreeBuilder, BcTreeVariant};
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_core::SearchParams;
use p2h_data::{paper_catalog, GroundTruth};
use p2h_eval::{budget_for_recall, evaluate};

const K_VALUES: [usize; 4] = [1, 10, 20, 40];
const TARGET_RECALL: f64 = 0.8;

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "# Figure 8 — point-level lower bound ablation at ≈{:.0}% recall (scale = {})\n",
        TARGET_RECALL * 100.0,
        cfg.scale
    );

    let variants = [
        BcTreeVariant::Full,
        BcTreeVariant::WithoutCone,
        BcTreeVariant::WithoutBall,
        BcTreeVariant::WithoutBoth,
    ];

    let mut rows = Vec::new();
    let mut exact_rows = Vec::new();
    for entry in paper_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig8] {}: n = {}", workload.name, workload.points.len());
        let bc = BcTreeBuilder::new(100).build(&workload.points).unwrap();
        let budgets = budget_ladder(workload.points.len());

        // Exact-search comparison: with no candidate budget the point-level bounds
        // directly reduce the number of verified candidates and the query time.
        for variant in variants {
            let view = bc.with_variant(variant);
            let eval = evaluate(
                &view,
                variant.label(),
                &workload.queries,
                &workload.ground_truth,
                &SearchParams::exact(cfg.k),
            );
            exact_rows.push(vec![
                workload.name.clone(),
                variant.label().to_string(),
                format!("{:.4}", eval.avg_query_time_ms),
                format!("{:.0}", eval.avg_candidates()),
            ]);
        }

        for k in K_VALUES {
            let gt = GroundTruth::compute(
                &workload.points,
                &workload.queries,
                k,
                p2h_bench::num_threads(),
            );
            for variant in variants {
                let view = bc.with_variant(variant);
                let eval = budget_for_recall(
                    &view,
                    variant.label(),
                    &workload.queries,
                    &gt,
                    k,
                    TARGET_RECALL,
                    &budgets,
                )
                .expect("non-empty budget ladder");
                rows.push(vec![
                    workload.name.clone(),
                    variant.label().to_string(),
                    k.to_string(),
                    format!("{:.2}", eval.recall_pct()),
                    format!("{:.4}", eval.avg_query_time_ms),
                    format!("{:.0}", eval.avg_candidates()),
                ]);
            }
        }
    }

    println!("## Exact search (k = {}, no candidate budget)\n", cfg.k);
    emit(
        &cfg,
        "fig8_ablation_exact",
        &["Data Set", "Variant", "Query Time (ms)", "Avg Candidates Verified"],
        &exact_rows,
    );
    println!("## At ≈{:.0}% recall\n", TARGET_RECALL * 100.0);
    emit(
        &cfg,
        "fig8_ablation",
        &["Data Set", "Variant", "k", "Recall (%)", "Query Time (ms)", "Avg Candidates"],
        &rows,
    );
}
