//! Figure 6: query time vs k at about 80% recall for BC-Tree, Ball-Tree, FH and NH.
//!
//! For each k ∈ {1, 10, 20, 40} and each method, the smallest candidate budget reaching
//! ≈80% mean recall is selected and its average query time reported.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_bench::{budget_ladder, emit, prepare, BenchConfig};
use p2h_core::P2hIndex;
use p2h_data::{paper_catalog, GroundTruth};
use p2h_eval::budget_for_recall;
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

const K_VALUES: [usize; 4] = [1, 10, 20, 40];
const TARGET_RECALL: f64 = 0.8;

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "# Figure 6 — query time vs k at ≈{:.0}% recall (scale = {})\n",
        TARGET_RECALL * 100.0,
        cfg.scale
    );

    let mut rows = Vec::new();
    for entry in paper_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let workload = prepare(&entry, &cfg);
        eprintln!("[fig6] {}: n = {}", workload.name, workload.points.len());

        let ball = BallTreeBuilder::new(100).build(&workload.points).unwrap();
        let bc = BcTreeBuilder::new(100).build(&workload.points).unwrap();
        let nh = NhIndex::build(&workload.points, NhParams::new(4, 16)).unwrap();
        let fh = FhIndex::build(&workload.points, FhParams::new(4, 16, 4)).unwrap();
        let methods: [(&dyn P2hIndex, &str); 4] =
            [(&bc, "BC-Tree"), (&ball, "Ball-Tree"), (&fh, "FH"), (&nh, "NH")];
        let budgets = budget_ladder(workload.points.len());

        for k in K_VALUES {
            // Ground truth depends on k.
            let gt = GroundTruth::compute(
                &workload.points,
                &workload.queries,
                k,
                p2h_bench::num_threads(),
            );
            for (index, label) in methods {
                let eval = budget_for_recall(
                    index,
                    label,
                    &workload.queries,
                    &gt,
                    k,
                    TARGET_RECALL,
                    &budgets,
                )
                .expect("non-empty budget ladder");
                rows.push(vec![
                    workload.name.clone(),
                    label.to_string(),
                    k.to_string(),
                    format!("{:.2}", eval.recall_pct()),
                    format!("{:.4}", eval.avg_query_time_ms),
                ]);
            }
        }
    }

    emit(&cfg, "fig6_time_k", &["Data Set", "Method", "k", "Recall (%)", "Query Time (ms)"], &rows);
}
