//! Table III: indexing time (seconds) and index size (MiB) of Ball-Tree, BC-Tree, and
//! the NH / FH baselines with sampling dimensions λ = d and λ = 8d.
//!
//! The paper reports the trees reducing indexing time by 1.5–170× and index size by
//! 11–2,400× relative to the hashing schemes; the same ordering (and roughly the same
//! ratios) should appear here on the synthetic stand-ins.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_bench::{emit, BenchConfig};
use p2h_data::paper_catalog;
use p2h_eval::measure_build;
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

/// Projection tables used by NH/FH. The paper reports the indexing overhead of NH and FH
/// with m = 128 (smaller m gives unreliable query results); we use the same setting here
/// so the indexing-cost ratios are comparable.
const HASH_TABLES: usize = 128;

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "# Table III — indexing time and index size (scale = {}, leaf size N0 = 100, \
         hash tables m = {HASH_TABLES})\n",
        cfg.scale
    );

    let mut rows = Vec::new();
    for entry in paper_catalog(cfg.scale) {
        if !cfg.selects(&entry.dataset.name) {
            continue;
        }
        let points = entry.dataset.generate().expect("generate");
        eprintln!(
            "[table3] {}: n = {}, d = {}",
            entry.dataset.name,
            points.len(),
            entry.dataset.raw_dim
        );

        let mut reports = Vec::new();
        let (_bc, r) = measure_build("BC-Tree", || BcTreeBuilder::new(100).build(&points).unwrap());
        reports.push(r);
        let (_ball, r) =
            measure_build("Ball-Tree", || BallTreeBuilder::new(100).build(&points).unwrap());
        reports.push(r);
        for lambda_factor in [1usize, 8] {
            let (_nh, r) = measure_build(format!("NH (λ={lambda_factor}d)"), || {
                NhIndex::build(&points, NhParams::new(lambda_factor, HASH_TABLES)).unwrap()
            });
            reports.push(r);
            let (_fh, r) = measure_build(format!("FH (λ={lambda_factor}d)"), || {
                FhIndex::build(&points, FhParams::new(lambda_factor, HASH_TABLES, 4)).unwrap()
            });
            reports.push(r);
        }

        for report in reports {
            rows.push(vec![
                entry.dataset.name.clone(),
                report.label.clone(),
                format!("{:.3}", report.build_time_s),
                format!("{:.2}", report.index_size_mb()),
            ]);
        }
    }

    emit(
        &cfg,
        "table3_indexing",
        &["Data Set", "Method", "Indexing Time (s)", "Index Size (MiB)"],
        &rows,
    );
}
