//! Running indexes over query batches: evaluation (sequential and parallel), budget
//! sweeps, and build measurement.

use std::time::Instant;

use p2h_core::{HyperplaneQuery, P2hIndex, SearchParams};
use p2h_data::GroundTruth;
use p2h_engine::{BatchExecutor, BatchRequest};

use crate::metrics::{MethodEvaluation, QueryEvaluation};
use crate::report::IndexingReport;

/// Evaluates an index on a batch of queries with the given search parameters.
///
/// Returns mean recall, average query time and aggregated work counters — the raw
/// material of every query-performance figure in the paper.
pub fn evaluate(
    index: &dyn P2hIndex,
    label: impl Into<String>,
    queries: &[HyperplaneQuery],
    ground_truth: &GroundTruth,
    params: &SearchParams,
) -> MethodEvaluation {
    assert_eq!(
        queries.len(),
        ground_truth.len(),
        "ground truth must cover exactly the evaluated queries"
    );
    let mut per_query = Vec::with_capacity(queries.len());
    for (i, query) in queries.iter().enumerate() {
        let start = Instant::now();
        let result = index.search(query, params);
        let time_ns = start.elapsed().as_nanos() as u64;
        let recall = ground_truth.recall(i, &result.indices(), &result.distances());
        per_query.push(QueryEvaluation { recall, time_ns, stats: result.stats });
    }
    MethodEvaluation::from_queries(label, params.k, params.candidate_limit, per_query)
}

/// A [`MethodEvaluation`] produced by concurrent workers, together with the batch-level
/// throughput numbers that only make sense for a parallel run.
///
/// The per-query recalls and work counters in `method` are bit-identical to what
/// [`evaluate`] computes (each query is answered independently and results are
/// reassembled in query order); per-query `time_ns` and the wall-clock throughput are
/// the only fields that vary run to run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelEvaluation {
    /// The usual per-query metrics, in query order.
    pub method: MethodEvaluation,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_time_ns: u64,
    /// Number of worker threads used.
    pub threads: usize,
}

impl ParallelEvaluation {
    /// Queries answered per second of batch wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_time_ns == 0 {
            return 0.0;
        }
        self.method.per_query.len() as f64 / (self.wall_time_ns as f64 / 1.0e9)
    }
}

/// Evaluates an index on a batch of queries using `threads` worker threads (`0` = one
/// per available CPU), reporting both per-query latency metrics and batch throughput.
///
/// The batch itself runs on `p2h_engine`'s [`BatchExecutor`] — one scheduler for the
/// whole workspace — so work is handed out dynamically and results come back in query
/// order; recall scoring happens afterwards on the ordered results.
pub fn evaluate_parallel(
    index: &dyn P2hIndex,
    label: impl Into<String>,
    queries: &[HyperplaneQuery],
    ground_truth: &GroundTruth,
    params: &SearchParams,
    threads: usize,
) -> ParallelEvaluation {
    assert_eq!(
        queries.len(),
        ground_truth.len(),
        "ground truth must cover exactly the evaluated queries"
    );
    let executor = BatchExecutor::new(threads);
    let request = BatchRequest::new(queries.to_vec(), params.clone());
    let response = executor.execute(index, &request);

    let per_query: Vec<QueryEvaluation> = response
        .results
        .iter()
        .zip(response.latencies_ns.iter())
        .enumerate()
        .map(|(i, (result, &time_ns))| QueryEvaluation {
            recall: ground_truth.recall(i, &result.indices(), &result.distances()),
            time_ns,
            stats: result.stats,
        })
        .collect();
    ParallelEvaluation {
        method: MethodEvaluation::from_queries(label, params.k, params.candidate_limit, per_query),
        wall_time_ns: response.wall_time_ns,
        threads: executor.threads(),
    }
}

/// Sweeps a list of candidate budgets, producing one [`MethodEvaluation`] per budget —
/// the points of a query-time/recall curve (Figures 5, 7, 9, 11).
pub fn sweep_budgets(
    index: &dyn P2hIndex,
    label: &str,
    queries: &[HyperplaneQuery],
    ground_truth: &GroundTruth,
    k: usize,
    budgets: &[usize],
) -> Vec<MethodEvaluation> {
    budgets
        .iter()
        .map(|&budget| {
            evaluate(index, label, queries, ground_truth, &SearchParams::approximate(k, budget))
        })
        .collect()
}

/// Finds the smallest budget from `budgets` whose mean recall reaches `target_recall`
/// (in `[0, 1]`), returning its evaluation. Returns the evaluation of the largest budget
/// if the target is never reached (mirroring the paper's "at about X% recall" protocol).
pub fn budget_for_recall(
    index: &dyn P2hIndex,
    label: &str,
    queries: &[HyperplaneQuery],
    ground_truth: &GroundTruth,
    k: usize,
    target_recall: f64,
    budgets: &[usize],
) -> Option<MethodEvaluation> {
    let mut last = None;
    for &budget in budgets {
        let eval =
            evaluate(index, label, queries, ground_truth, &SearchParams::approximate(k, budget));
        let reached = eval.mean_recall >= target_recall;
        last = Some(eval);
        if reached {
            return last;
        }
    }
    last
}

/// Measures the wall-clock build time of an index constructor and packages it with the
/// resulting index size — one row of Table III.
pub fn measure_build<I, F>(label: impl Into<String>, build: F) -> (I, IndexingReport)
where
    I: P2hIndex,
    F: FnOnce() -> I,
{
    let start = Instant::now();
    let index = build();
    let build_time_s = start.elapsed().as_secs_f64();
    let report = IndexingReport {
        label: label.into(),
        build_time_s,
        index_size_bytes: index.index_size_bytes(),
    };
    (index, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
    use p2h_core::{LinearScan, PointSet};
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn setup(n: usize) -> (PointSet, Vec<HyperplaneQuery>, GroundTruth) {
        let ps = SyntheticDataset::new(
            "eval-run",
            n,
            10,
            DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.2 },
            55,
        )
        .generate()
        .unwrap();
        let queries = generate_queries(&ps, 12, QueryDistribution::DataDifference, 7).unwrap();
        let gt = GroundTruth::compute(&ps, &queries, 10, 2);
        (ps, queries, gt)
    }

    #[test]
    fn exact_evaluation_has_full_recall() {
        let (ps, queries, gt) = setup(1_500);
        let scan = LinearScan::new(ps.clone());
        let eval = evaluate(&scan, "Linear-Scan", &queries, &gt, &SearchParams::exact(10));
        assert!((eval.mean_recall - 1.0).abs() < 1e-9);
        assert_eq!(eval.per_query.len(), 12);
        assert!(eval.avg_query_time_ms >= 0.0);

        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let eval = evaluate(&tree, "BC-Tree", &queries, &gt, &SearchParams::exact(10));
        assert!((eval.mean_recall - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_recall_is_monotone_in_budget() {
        let (ps, queries, gt) = setup(4_000);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let budgets = [100, 500, 2_000, 4_000];
        let evals = sweep_budgets(&tree, "Ball-Tree", &queries, &gt, 10, &budgets);
        assert_eq!(evals.len(), budgets.len());
        for pair in evals.windows(2) {
            assert!(
                pair[1].mean_recall + 1e-9 >= pair[0].mean_recall,
                "recall must not decrease with a larger budget: {} -> {}",
                pair[0].mean_recall,
                pair[1].mean_recall
            );
        }
        assert!((evals.last().unwrap().mean_recall - 1.0).abs() < 1e-9);
        // Labels and budgets are carried through.
        assert_eq!(evals[0].label, "Ball-Tree");
        assert_eq!(evals[0].candidate_limit, Some(100));
    }

    #[test]
    fn budget_for_recall_picks_smallest_sufficient_budget() {
        let (ps, queries, gt) = setup(3_000);
        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let budgets = [50, 200, 1_000, 3_000];
        let eval = budget_for_recall(&tree, "BC-Tree", &queries, &gt, 10, 0.8, &budgets).unwrap();
        assert!(eval.mean_recall >= 0.8);
        assert!(eval.candidate_limit.unwrap() <= 3_000);

        // An unreachable target falls back to the largest budget.
        let eval = budget_for_recall(&tree, "BC-Tree", &queries, &gt, 10, 2.0, &[10, 20]).unwrap();
        assert_eq!(eval.candidate_limit, Some(20));
    }

    #[test]
    fn measure_build_reports_time_and_size() {
        let (ps, _, _) = setup(2_000);
        let (index, report) =
            measure_build("Ball-Tree", || BallTreeBuilder::new(100).build(&ps).unwrap());
        assert_eq!(report.label, "Ball-Tree");
        assert!(report.build_time_s > 0.0);
        assert_eq!(report.index_size_bytes, index.index_size_bytes());
        assert!(report.index_size_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "ground truth must cover")]
    fn mismatched_ground_truth_panics() {
        let (ps, queries, gt) = setup(500);
        let scan = LinearScan::new(ps);
        evaluate(&scan, "x", &queries[..3], &gt, &SearchParams::exact(1));
    }

    #[test]
    fn parallel_evaluation_matches_sequential_metrics() {
        let (ps, queries, gt) = setup(2_000);
        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let params = SearchParams::approximate(10, 600);
        let sequential = evaluate(&tree, "BC-Tree", &queries, &gt, &params);
        for threads in [1, 2, 4] {
            let parallel = evaluate_parallel(&tree, "BC-Tree", &queries, &gt, &params, threads);
            assert_eq!(parallel.threads, threads);
            assert_eq!(parallel.method.per_query.len(), sequential.per_query.len());
            assert_eq!(parallel.method.label, sequential.label);
            assert!((parallel.method.mean_recall - sequential.mean_recall).abs() < 1e-12);
            // Work counters are deterministic; only timings vary between runs.
            for (p, s) in parallel.method.per_query.iter().zip(sequential.per_query.iter()) {
                assert_eq!(p.recall, s.recall);
                assert_eq!(p.stats.candidates_verified, s.stats.candidates_verified);
                assert_eq!(p.stats.inner_products, s.stats.inner_products);
            }
            assert!(parallel.wall_time_ns > 0);
            assert!(parallel.throughput_qps() > 0.0);
        }
    }

    #[test]
    fn parallel_evaluation_handles_empty_and_zero_threads() {
        let (ps, _, _) = setup(200);
        let scan = LinearScan::new(ps);
        let gt = GroundTruth::compute(scan.points(), &[], 5, 2);
        let parallel = evaluate_parallel(&scan, "scan", &[], &gt, &SearchParams::exact(5), 0);
        assert!(parallel.method.per_query.is_empty());
        assert!(parallel.threads >= 1);
    }
}
