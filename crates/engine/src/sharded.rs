//! Shard-parallel batch execution: fan every query of a batch out across the shards of
//! a [`ShardedIndex`], with per-shard latency and work statistics.
//!
//! The ordinary [`crate::BatchExecutor`] parallelizes over *queries* (a
//! `ShardedIndex` is searched shard-by-shard inside one worker), which maximizes batch
//! throughput. The [`ShardedExecutor`] parallelizes over *(shard, query)* sub-searches
//! instead: several workers cooperate on each query's fan-out, which cuts single-query
//! latency when the batch is small relative to the core count (`Engine::serve_sharded`
//! is its one serving path). Merged results are **bit-identical** to
//! [`p2h_core::P2hIndex::search`] on the same `ShardedIndex` (and therefore, for exact
//! search, to an unsharded index): the merge uses the total `Neighbor` order, so the
//! interleaving of sub-searches cannot influence any answer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use p2h_core::{QueryScratch, SearchResult, SearchStats};
use p2h_shard::{merge_topk, ShardedIndex};

use crate::batch::{BatchRequest, LatencyHistogram};

/// Largest number of sub-searches a worker claims per cursor bump (mirrors the batch
/// executor's chunking rationale).
const MAX_CHUNK: usize = 32;

fn chunk_size(tasks: usize, workers: usize) -> usize {
    (tasks / (workers * 8)).clamp(1, MAX_CHUNK)
}

/// Executes query batches against a [`ShardedIndex`] with shard-level parallelism and
/// per-shard observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedExecutor {
    threads: usize,
}

impl Default for ShardedExecutor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl ShardedExecutor {
    /// Creates an executor with the given worker-thread count; `0` means one worker
    /// per available CPU.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        } else {
            threads
        };
        Self { threads }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fans every query of `request` across every shard of `index`, merging the
    /// per-shard top-k lists deterministically.
    ///
    /// The caller is responsible for dimension validation (see
    /// `Engine::serve_sharded`); a query whose dimension does not match the index
    /// panics, exactly as `P2hIndex::search` does.
    pub fn execute(&self, index: &ShardedIndex, request: &BatchRequest) -> ShardedBatchResponse {
        let start = Instant::now();
        let n_queries = request.queries.len();
        let n_shards = index.shard_count();
        let tasks = n_queries * n_shards;
        let workers = self.threads.min(tasks).max(1);

        // One slot per (shard, query) sub-search: the shard's globally-mapped top-k
        // list (None when the shard was skipped by the budget split) and its latency.
        type SubSearch = (Option<SearchResult>, u64);
        let mut slots: Vec<Option<SubSearch>> = (0..tasks).map(|_| None).collect();

        let run_task = |task: usize, scratch: &mut QueryScratch| {
            let shard = task / n_queries.max(1);
            let query = task % n_queries.max(1);
            let sub_start = Instant::now();
            let result = index.search_shard(
                shard,
                &request.queries[query],
                request.params_for(query),
                scratch,
            );
            (result, sub_start.elapsed().as_nanos() as u64)
        };

        if workers <= 1 {
            let mut scratch = QueryScratch::new();
            for (task, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run_task(task, &mut scratch));
            }
        } else {
            let chunk = chunk_size(tasks, workers);
            let cursor = AtomicUsize::new(0);
            let per_worker: Vec<Vec<(usize, SubSearch)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut scratch = QueryScratch::new();
                            let mut local = Vec::with_capacity(tasks / workers + chunk);
                            loop {
                                let begin = cursor.fetch_add(chunk, Ordering::Relaxed);
                                if begin >= tasks {
                                    return local;
                                }
                                for task in begin..(begin + chunk).min(tasks) {
                                    local.push((task, run_task(task, &mut scratch)));
                                }
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sharded worker thread panicked"))
                    .collect()
            });
            for worker in per_worker {
                for (task, outcome) in worker {
                    slots[task] = Some(outcome);
                }
            }
        }

        // Reassemble: merge each query's shard lists, aggregate per-shard telemetry.
        // Latencies stream straight into the (constant-size) histograms — no latency
        // vector is cloned or sorted.
        let mut results = Vec::with_capacity(n_queries);
        let mut latencies_ns = Vec::with_capacity(n_queries);
        let mut latency = LatencyHistogram::new();
        let mut total_stats = SearchStats::default();
        let mut per_shard_stats = vec![SearchStats::default(); n_shards];
        let mut per_shard_latency = vec![LatencyHistogram::new(); n_shards];
        for query in 0..n_queries {
            let mut lists = Vec::with_capacity(n_shards);
            let mut stats = SearchStats::default();
            let mut latency_ns = 0u64;
            for shard in 0..n_shards {
                let slot = slots[shard * n_queries + query]
                    .take()
                    .expect("every sub-search was dispatched");
                let (outcome, sub_latency) = slot;
                latency_ns += sub_latency;
                if let Some(sub) = outcome {
                    stats.merge(&sub.stats);
                    per_shard_stats[shard].merge(&sub.stats);
                    per_shard_latency[shard].record(sub_latency);
                    lists.push(sub.neighbors);
                }
            }
            let merge_start = Instant::now();
            let neighbors = merge_topk(request.params_for(query).k, lists);
            stats.time_merge_ns = merge_start.elapsed().as_nanos() as u64;
            // Report the measured fan-out latency rather than the sum of the shards'
            // self-reported totals (same quantity, one clock); the merge happens after
            // the fan-out, so it adds on top.
            stats.time_total_ns = latency_ns + stats.time_merge_ns;
            total_stats.merge(&stats);
            latency.record(latency_ns);
            latencies_ns.push(latency_ns);
            results.push(SearchResult { neighbors, stats });
        }

        ShardedBatchResponse {
            results,
            latency,
            latencies_ns,
            total_stats,
            per_shard_stats,
            per_shard_latency,
            wall_time_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// The answer to a batch served against a [`ShardedIndex`] with per-shard telemetry.
#[derive(Debug, Clone)]
pub struct ShardedBatchResponse {
    /// Per-query merged results, in request order — bit-identical to searching the
    /// `ShardedIndex` through `P2hIndex::search`, regardless of thread count.
    pub results: Vec<SearchResult>,
    /// Per-query fan-out latency in nanoseconds (sum of the query's per-shard
    /// sub-search latencies), in request order.
    pub latencies_ns: Vec<u64>,
    /// Distribution of the per-query fan-out latencies.
    pub latency: LatencyHistogram,
    /// Component-wise sum of every sub-search's stats.
    pub total_stats: SearchStats,
    /// Per-shard latency distributions over the sub-searches the shard actually ran
    /// (budget-skipped shards record nothing) — the shard-imbalance signal a serving
    /// operator watches.
    pub per_shard_latency: Vec<LatencyHistogram>,
    /// Per-shard work counters, same indexing as `per_shard_latency`.
    pub per_shard_stats: Vec<SearchStats>,
    /// Wall-clock nanoseconds for the whole batch (including merge overhead).
    pub wall_time_ns: u64,
}

impl ShardedBatchResponse {
    /// Queries answered per second of batch wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_time_ns == 0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.wall_time_ns as f64 / 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{HyperplaneQuery, P2hIndex, PointSet, Scalar, SearchParams};
    use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};

    fn setup(n: usize, shards: usize) -> (ShardedIndex, Vec<HyperplaneQuery>) {
        let rows: Vec<Vec<Scalar>> = (0..n)
            .map(|i| vec![(i % 29) as Scalar * 0.9 - 12.0, (i % 13) as Scalar * 0.4])
            .collect();
        let points = PointSet::augment(&rows).unwrap();
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Hash { shards },
            ShardIndexKind::BallTree { leaf_size: 16 },
        )
        .build(&points)
        .unwrap();
        let queries = (0..20)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(
                    &[1.0, (i as Scalar * 0.43).cos()],
                    -(i as Scalar * 0.7) + 2.0,
                )
                .unwrap()
            })
            .collect();
        (sharded, queries)
    }

    #[test]
    fn shard_parallel_results_match_the_trait_path_bit_for_bit() {
        let (index, queries) = setup(700, 4);
        let request = BatchRequest::new(queries, SearchParams::exact(6))
            .with_override(2, SearchParams::approximate(6, 100))
            .with_override(9, SearchParams::exact(1));
        let mut scratch = QueryScratch::new();
        let reference: Vec<SearchResult> = request
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| index.search_with_scratch(q, request.params_for(i), &mut scratch))
            .collect();
        for threads in [1, 2, 4, 8] {
            let response = ShardedExecutor::new(threads).execute(&index, &request);
            assert_eq!(response.results.len(), reference.len());
            for (got, expected) in response.results.iter().zip(&reference) {
                assert_eq!(got.neighbors, expected.neighbors, "threads={threads}");
            }
        }
    }

    #[test]
    fn per_shard_telemetry_covers_every_sub_search() {
        let (index, queries) = setup(600, 3);
        let n_queries = queries.len();
        let request = BatchRequest::new(queries, SearchParams::exact(4));
        let response = ShardedExecutor::new(2).execute(&index, &request);
        assert_eq!(response.per_shard_latency.len(), 3);
        assert_eq!(response.per_shard_stats.len(), 3);
        for shard in 0..3 {
            // Exact search skips no shard: every query touched every shard.
            assert_eq!(response.per_shard_latency[shard].count(), n_queries);
            assert!(response.per_shard_stats[shard].candidates_verified > 0);
        }
        assert_eq!(response.latency.count(), n_queries);
        assert!(response.throughput_qps() > 0.0);
        // The shard stats partition the total work.
        let shard_sum: u64 = response.per_shard_stats.iter().map(|s| s.candidates_verified).sum();
        assert_eq!(shard_sum, response.total_stats.candidates_verified);
        // Merge time is measured per query (not by the shards) and aggregates.
        let merge_sum: u64 = response.results.iter().map(|r| r.stats.time_merge_ns).sum();
        assert_eq!(response.total_stats.time_merge_ns, merge_sum);
        for (result, &latency_ns) in response.results.iter().zip(&response.latencies_ns) {
            assert_eq!(result.stats.time_total_ns, latency_ns + result.stats.time_merge_ns);
        }
    }

    #[test]
    fn budget_skipped_shards_record_no_latency_samples() {
        let (index, queries) = setup(500, 4);
        let n_queries = queries.len();
        // A budget of 1 reaches only the shard holding global id 0.
        let request = BatchRequest::new(queries, SearchParams::approximate(1, 1));
        let response = ShardedExecutor::new(2).execute(&index, &request);
        let sampled: usize = response.per_shard_latency.iter().map(|h| h.count()).sum();
        assert_eq!(sampled, n_queries, "only one shard may run per query");
        assert_eq!(response.total_stats.candidates_verified, n_queries as u64);
    }

    #[test]
    fn empty_batch_is_safe() {
        let (index, _) = setup(100, 2);
        let request = BatchRequest::new(Vec::new(), SearchParams::exact(1));
        let response = ShardedExecutor::new(4).execute(&index, &request);
        assert!(response.results.is_empty());
        assert_eq!(response.latency.count(), 0);
        assert_eq!(response.throughput_qps(), 0.0);
    }
}
