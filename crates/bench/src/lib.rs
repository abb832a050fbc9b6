//! # p2h-bench
//!
//! The benchmark harness that reproduces every table and figure of the paper's
//! evaluation (Section V). Each binary regenerates one artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table2_datasets` | Table II — data-set statistics |
//! | `table3_indexing` | Table III — indexing time and index size |
//! | `fig5_time_recall` | Figure 5 — query time vs recall (k = 10) |
//! | `fig6_time_k` | Figure 6 — query time vs k at ≈80% recall |
//! | `fig7_branch_pref` | Figure 7 — center vs lower-bound branch preference |
//! | `fig8_ablation` | Figure 8 — point-level bound ablation |
//! | `fig9_large_scale` | Figure 9 — large-scale data sets |
//! | `fig10_time_profile` | Figure 10 — query time profile |
//! | `fig11_leaf_size` | Figure 11 — impact of the leaf size N0 |
//!
//! The figure and table binaries accept `--scale <f>` (cardinality multiplier applied
//! to the paper's data set sizes), `--queries <n>`, `--k <n>`, `--datasets
//! <substring[,substring]>` and `--out <dir>`; results are printed as Markdown tables
//! and written as CSV under the output directory (default `results/`). `kernel_bench` micro-benchmarks the
//! verification kernels and the checksum; the serving stack (engine, store, shards,
//! network, front-end, live tier) is measured end to end by the `p2h-benchmark`
//! package under `benchmark/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::{Path, PathBuf};

use p2h_core::{HyperplaneQuery, P2hIndex, PointSet};
use p2h_data::{generate_queries, DatasetEntry, GroundTruth, QueryDistribution};
use p2h_eval::{markdown_table, write_csv};

/// Shared command-line configuration of every benchmark binary.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Cardinality multiplier applied to the paper's data-set sizes (see
    /// [`p2h_data::paper_catalog`]).
    pub scale: f64,
    /// Number of hyperplane queries per data set (the paper uses 100).
    pub queries: usize,
    /// `k` of the top-k queries (the paper's default figure setting is 10).
    pub k: usize,
    /// Optional comma-separated list of data-set name substrings to run.
    pub datasets: Option<Vec<String>>,
    /// Output directory for the CSV reports.
    pub out_dir: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self { scale: 0.02, queries: 20, k: 10, datasets: None, out_dir: PathBuf::from("results") }
    }
}

impl BenchConfig {
    /// Parses the standard flags from `std::env::args`. Unknown flags abort with a
    /// usage message, so typos do not silently run a multi-minute benchmark with the
    /// wrong configuration.
    pub fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();

        fn take(args: &[String], i: &mut usize, name: &str) -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("missing value for {name}")).clone()
        }

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    cfg.scale =
                        take(&args, &mut i, "--scale").parse().expect("--scale expects a float")
                }
                "--queries" => {
                    cfg.queries = take(&args, &mut i, "--queries")
                        .parse()
                        .expect("--queries expects an integer")
                }
                "--k" => {
                    cfg.k = take(&args, &mut i, "--k").parse().expect("--k expects an integer")
                }
                "--datasets" => {
                    cfg.datasets = Some(
                        take(&args, &mut i, "--datasets")
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .collect(),
                    )
                }
                "--out" => cfg.out_dir = PathBuf::from(take(&args, &mut i, "--out")),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <bench> [--scale F] [--queries N] [--k N] \
                         [--datasets a,b,...] [--out DIR]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}`; run with --help for usage"),
            }
            i += 1;
        }
        cfg
    }

    /// Whether a data set with this name is selected by the `--datasets` filter.
    pub fn selects(&self, name: &str) -> bool {
        match &self.datasets {
            None => true,
            Some(filters) => {
                filters.iter().any(|f| name.to_lowercase().contains(&f.to_lowercase()))
            }
        }
    }
}

/// A prepared workload: generated points, queries, and exact ground truth for one
/// catalog entry.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Data-set name (the paper's name for the real data set this stands in for).
    pub name: String,
    /// Raw dimensionality of the data set.
    pub raw_dim: usize,
    /// The augmented points.
    pub points: PointSet,
    /// The hyperplane queries.
    pub queries: Vec<HyperplaneQuery>,
    /// Exact top-k ground truth for `queries`.
    pub ground_truth: GroundTruth,
}

/// Generates the workload for one catalog entry: points, queries (data-difference
/// protocol, as in the paper), and exact ground truth.
pub fn prepare(entry: &DatasetEntry, cfg: &BenchConfig) -> Workload {
    let points = entry.dataset.generate().expect("synthetic generation");
    let queries = generate_queries(
        &points,
        cfg.queries,
        QueryDistribution::DataDifference,
        entry.dataset.seed ^ 0x5eed,
    )
    .expect("query generation");
    let ground_truth = GroundTruth::compute(&points, &queries, cfg.k, num_threads());
    Workload {
        name: entry.dataset.name.clone(),
        raw_dim: entry.dataset.raw_dim,
        points,
        queries,
        ground_truth,
    }
}

/// A ladder of candidate budgets expressed as fractions of the data-set size, used to
/// trace the recall/time curves. Always ends with the full data set (exact search).
pub fn budget_ladder(n: usize) -> Vec<usize> {
    let fractions = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0];
    let mut budgets: Vec<usize> =
        fractions.iter().map(|f| ((n as f64 * f) as usize).max(1)).collect();
    budgets.dedup();
    budgets
}

/// Number of worker threads to use for ground-truth computation.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// Prints a Markdown table to stdout and writes the same rows as CSV under the output
/// directory.
pub fn emit(cfg: &BenchConfig, file_stem: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", markdown_table(headers, rows));
    let path: PathBuf = cfg.out_dir.join(format!("{file_stem}.csv"));
    if let Err(err) = write_csv(Path::new(&path), headers, rows) {
        eprintln!("warning: could not write {}: {err}", path.display());
    } else {
        println!("(written to {})\n", path.display());
    }
}

/// Formats a boxed index set (label + trait object) commonly used by the figure benches.
pub type MethodSet = Vec<(String, Box<dyn P2hIndex>)>;

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_data::paper_catalog;

    #[test]
    fn default_config_and_filters() {
        let cfg = BenchConfig::default();
        assert!(cfg.selects("Sift"));
        let cfg = BenchConfig { datasets: Some(vec!["sift".into(), "gist".into()]), ..cfg };
        assert!(cfg.selects("Sift"));
        assert!(cfg.selects("Gist"));
        assert!(!cfg.selects("Music"));
    }

    #[test]
    fn budget_ladder_is_increasing_and_ends_at_n() {
        let ladder = budget_ladder(10_000);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*ladder.last().unwrap(), 10_000);
        assert!(ladder[0] >= 1);
        // Tiny data sets do not produce duplicate budgets.
        let tiny = budget_ladder(10);
        assert!(tiny.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn prepare_builds_consistent_workload() {
        let mut entry = paper_catalog(0.02).remove(2); // Sift stand-in
        entry.dataset.n = 1_000;
        let cfg = BenchConfig { queries: 5, k: 10, ..Default::default() };
        let workload = prepare(&entry, &cfg);
        assert_eq!(workload.name, "Sift");
        assert_eq!(workload.points.len(), 1_000);
        assert_eq!(workload.queries.len(), 5);
        assert_eq!(workload.ground_truth.len(), 5);
        assert_eq!(workload.ground_truth.k(), 10);
        assert_eq!(workload.raw_dim, 128);
    }
}
