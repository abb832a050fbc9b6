//! The scoped-thread batch executor.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use p2h_core::{traversal_run, P2hIndex, QueryScratch, SearchResult, SearchStats, GROUP_WIDTH};

use crate::batch::{BatchRequest, BatchResponse, LatencyHistogram};

/// Largest number of queries a worker claims per cursor bump.
const MAX_CHUNK: usize = 32;

/// Number of consecutive queries a worker claims per cursor bump.
///
/// A batch with a query that may share a tree traversal is handed out in spans of up to
/// [`GROUP_WIDTH`], shrunk to `ceil(n / workers)` so that every worker still gets work
/// (8 queries on 2 workers are two spans of 4): a span is what a group is formed from.
/// A batch without one — every query budgeted or timed — keeps the chunked hand-out:
/// large enough to amortize the shared-cursor traffic when per-query cost is tiny, small
/// enough (at most [`MAX_CHUNK`], at most ~an eighth of each worker's fair share) that
/// skewed per-query costs still balance.
fn span_size(request: &BatchRequest, workers: usize) -> usize {
    let n = request.queries.len();
    let shares = |i| {
        let params = request.params_for(i);
        params.shares_traversal_with(params)
    };
    if (0..n).any(shares) {
        n.div_ceil(workers).clamp(1, GROUP_WIDTH)
    } else {
        (n / (workers * 8)).clamp(1, MAX_CHUNK)
    }
}

/// Executes query batches over worker threads with deterministic result ordering.
///
/// Work distribution is dynamic: an atomic cursor hands out *spans* of consecutive
/// query indexes (see `span_size`) so that workers synchronize once per span rather
/// than once per query, which matters when a single query costs only microseconds.
/// Within a span, runs of consecutive queries that may share a tree traversal — exact,
/// untimed, same branch preference ([`p2h_core::SearchParams::shares_traversal_with`])
/// — are answered by one [`P2hIndex::search_group_with_scratch`] call; every other
/// query is answered alone. Results are reassembled in request order and a query's
/// neighbors do not depend on its group, so the response's `results` are bit-identical
/// to sequential execution no matter how many threads ran the batch or how the spans
/// interleaved — only work counters, the latency histogram and wall-clock time vary.
///
/// Each worker owns one [`QueryScratch`] for its whole run, so the steady-state
/// per-query path performs no heap allocation beyond each query's k-element result
/// vector (verified by the `allocations` integration test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchExecutor {
    threads: usize,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl BatchExecutor {
    /// Creates an executor with the given worker-thread count; `0` means one worker per
    /// available CPU.
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

    /// Executes every query of `request` against `index`, in parallel.
    ///
    /// The caller is responsible for dimension validation (see `Engine::serve`); passing
    /// a query whose dimension does not match the index panics, exactly as
    /// [`P2hIndex::search`] does.
    pub fn execute(&self, index: &dyn P2hIndex, request: &BatchRequest) -> BatchResponse {
        let n = request.queries.len();
        let start = Instant::now();
        let workers = self.threads.min(n).max(1);
        let span = span_size(request, workers);
        let cursor = AtomicUsize::new(0);

        let work = || {
            let mut scratch = QueryScratch::new();
            let mut group = Vec::with_capacity(GROUP_WIDTH);
            let mut served = Vec::with_capacity(n / workers + span);
            loop {
                let begin = cursor.fetch_add(span, Ordering::Relaxed);
                if begin >= n {
                    return served;
                }
                let span = begin..(begin + span).min(n);
                serve_span(index, request, span, &mut scratch, &mut group, &mut served);
            }
        };
        // One worker runs on the calling thread (no scope, no spawn).
        let per_worker: Vec<Vec<Served>> = if workers <= 1 {
            vec![work()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch worker thread panicked"))
                    .collect()
            })
        };

        let mut slots: Vec<Option<(SearchResult, u64)>> = (0..n).map(|_| None).collect();
        for (i, result, latency_ns) in per_worker.into_iter().flatten() {
            slots[i] = Some((result, latency_ns));
        }

        let mut results = Vec::with_capacity(n);
        let mut latencies_ns = Vec::with_capacity(n);
        let mut latency = LatencyHistogram::new();
        let mut total_stats = SearchStats::default();
        for slot in slots.iter_mut() {
            let (result, latency_ns) = slot.take().expect("every query index was dispatched");
            total_stats.merge(&result.stats);
            latency.record(latency_ns);
            latencies_ns.push(latency_ns);
            results.push(result);
        }

        BatchResponse {
            results,
            latency,
            latencies_ns,
            total_stats,
            wall_time_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// `(query position, its result, its latency in ns)`.
type Served = (usize, SearchResult, u64);

/// Answers the queries of `span` in order: each maximal run (up to [`GROUP_WIDTH`]) of
/// queries that may share a traversal through one group call, every other query alone.
///
/// A query answered alone is clocked around its call. A grouped query's latency is its
/// result's `time_total_ns`: the group's wall time from an index that shares the
/// traversal, the query's own search time from one that answers the group one by one.
fn serve_span(
    index: &dyn P2hIndex,
    request: &BatchRequest,
    span: Range<usize>,
    scratch: &mut QueryScratch,
    group: &mut Vec<SearchResult>,
    served: &mut Vec<Served>,
) {
    let mut i = span.start;
    while i < span.end {
        let (params, width) = traversal_run((i..span.end).map(|j| request.params_for(j)));
        if width == 1 {
            let query_start = Instant::now();
            let result = index.search_with_scratch(&request.queries[i], params[0], scratch);
            served.push((i, result, query_start.elapsed().as_nanos() as u64));
        } else {
            let queries = &request.queries[i..i + width];
            index.search_group_with_scratch(queries, &params[..width], scratch, group);
            assert_eq!(group.len(), width, "a group search answers every member");
            for (offset, result) in group.drain(..).enumerate() {
                let latency_ns = result.stats.time_total_ns;
                served.push((i + offset, result, latency_ns));
            }
        }
        i += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{BranchPreference, HyperplaneQuery, LinearScan, PointSet, Scalar, SearchParams};
    use std::sync::Mutex;

    fn setup(n: usize) -> (LinearScan, Vec<HyperplaneQuery>) {
        let rows: Vec<Vec<Scalar>> = (0..n)
            .map(|i| vec![(i % 31) as Scalar * 0.7 - 10.0, (i % 17) as Scalar * 0.3])
            .collect();
        let points = PointSet::augment(&rows).unwrap();
        let queries = (0..24)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(
                    &[1.0, (i as Scalar * 0.37).sin()],
                    -(i as Scalar * 0.5) + 3.0,
                )
                .unwrap()
            })
            .collect();
        (LinearScan::new(points), queries)
    }

    #[test]
    fn parallel_results_match_sequential_bit_for_bit() {
        let (index, queries) = setup(800);
        let request = BatchRequest::new(queries, SearchParams::exact(7))
            .with_override(3, SearchParams::approximate(7, 50))
            .with_override(11, SearchParams::exact(2));
        let sequential = BatchExecutor::new(1).execute(&index, &request);
        for threads in [2, 4, 8] {
            let parallel = BatchExecutor::new(threads).execute(&index, &request);
            assert_eq!(parallel.results.len(), sequential.results.len());
            for (p, s) in parallel.results.iter().zip(sequential.results.iter()) {
                assert_eq!(p.neighbors, s.neighbors, "threads={threads}");
            }
        }
    }

    #[test]
    fn chunked_handout_covers_every_query_exactly_once() {
        // More queries than workers * span so several cursor rounds happen; the
        // reassembly would hit a `None` slot (and panic) if any index were skipped, and
        // duplicated indexes would leave another slot `None`.
        let (index, mut queries) = setup(120);
        while queries.len() < 150 {
            let q = queries[queries.len() % 24].clone();
            queries.push(q);
        }
        let n = queries.len();
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        assert!(n > 4 * span_size(&request, 4) * 2);
        let sequential = BatchExecutor::new(1).execute(&index, &request);
        let chunked = BatchExecutor::new(4).execute(&index, &request);
        assert_eq!(chunked.results.len(), n);
        assert_eq!(chunked.latency.count(), n);
        for (p, s) in chunked.results.iter().zip(sequential.results.iter()) {
            assert_eq!(p.neighbors, s.neighbors);
        }
    }

    /// Wraps an index and records which query positions each call received.
    struct Recorder<'a> {
        inner: LinearScan,
        request: &'a BatchRequest,
        calls: Mutex<Vec<Vec<usize>>>,
    }

    impl Recorder<'_> {
        /// Position in the request of a query borrowed from it.
        fn position(&self, query: &HyperplaneQuery) -> usize {
            let base = self.request.queries.as_ptr() as usize;
            (query as *const HyperplaneQuery as usize - base) / size_of::<HyperplaneQuery>()
        }
    }

    impl P2hIndex for Recorder<'_> {
        fn name(&self) -> &'static str {
            "Recorder"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn index_size_bytes(&self) -> usize {
            0
        }
        fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
            self.calls.lock().unwrap().push(vec![self.position(query)]);
            self.inner.search(query, params)
        }
        fn search_group_with_scratch(
            &self,
            queries: &[HyperplaneQuery],
            params: &[&SearchParams],
            scratch: &mut QueryScratch,
            out: &mut Vec<SearchResult>,
        ) {
            self.calls.lock().unwrap().push(queries.iter().map(|q| self.position(q)).collect());
            self.inner.search_group_with_scratch(queries, params, scratch, out);
        }
    }

    fn batch_of(n: usize, default_params: SearchParams) -> BatchRequest {
        let (_, base) = setup(10);
        BatchRequest::new((0..n).map(|i| base[i % base.len()].clone()).collect(), default_params)
    }

    #[test]
    fn handout_dispatches_every_query_once_and_groups_only_what_may_share() {
        let lower = SearchParams::exact(4).with_branch_preference(BranchPreference::LowerBound);
        for n in [1, 7, 8, 9, 16, 17, 45] {
            let mut request = batch_of(n, SearchParams::exact(5));
            for i in 0..n {
                match i % 11 {
                    3 => request = request.with_override(i, SearchParams::approximate(5, 40)),
                    5 => request = request.with_override(i, SearchParams::exact(5).with_timing()),
                    7 | 8 => request = request.with_override(i, lower.clone()),
                    9 => request = request.with_override(i, SearchParams::exact(2)),
                    _ => {}
                }
            }
            for threads in [1, 2, 4, 8] {
                let (scan, _) = setup(200);
                let recorder =
                    Recorder { inner: scan, request: &request, calls: Mutex::new(Vec::new()) };
                let response = BatchExecutor::new(threads).execute(&recorder, &request);
                assert_eq!(response.results.len(), n);

                let calls = recorder.calls.into_inner().unwrap();
                let mut seen: Vec<usize> = calls.iter().flatten().copied().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
                for call in &calls {
                    assert!(call.len() <= GROUP_WIDTH);
                    assert!(call.windows(2).all(|w| w[1] == w[0] + 1), "consecutive: {call:?}");
                    let first = request.params_for(call[0]);
                    if call.len() > 1 {
                        assert!(call
                            .iter()
                            .all(|&i| first.shares_traversal_with(request.params_for(i))));
                    }
                }
                // Every worker gets a span: nothing wider than its fair share.
                let fair = n.div_ceil(threads.min(n));
                assert!(calls.iter().all(|call| call.len() <= fair), "n={n} threads={threads}");
                // Positions 0..=2 always keep the default exact parameters.
                if n >= 16 && threads == 1 {
                    assert!(calls.contains(&vec![0, 1, 2]), "runs are grouped: {calls:?}");
                }
            }
        }
    }

    #[test]
    fn span_size_shrinks_groups_to_feed_every_worker_and_keeps_chunks_for_budgeted() {
        let exact = |n| batch_of(n, SearchParams::exact(3));
        assert_eq!(span_size(&exact(8), 2), 4);
        assert_eq!(span_size(&exact(9), 2), 5);
        assert_eq!(span_size(&exact(8), 1), GROUP_WIDTH);
        assert_eq!(span_size(&exact(100), 4), GROUP_WIDTH);
        assert_eq!(span_size(&exact(3), 3), 1);
        assert_eq!(span_size(&exact(0), 1), 1);
        // One shareable query is enough to size spans for grouping.
        let mixed =
            batch_of(64, SearchParams::approximate(3, 50)).with_override(9, SearchParams::exact(3));
        assert_eq!(span_size(&mixed, 4), GROUP_WIDTH);

        // No shareable query: the chunked hand-out, unchanged.
        let budgeted = |n| batch_of(n, SearchParams::approximate(3, 50));
        assert_eq!(span_size(&budgeted(1), 1), 1);
        assert_eq!(span_size(&budgeted(16), 2), 1);
        assert_eq!(span_size(&budgeted(64), 8), 1);
        assert_eq!(span_size(&budgeted(1_000), 4), 31);
        // Huge batches are capped so tail latency stays balanced.
        assert_eq!(span_size(&budgeted(2_000), 4), MAX_CHUNK);
        let timed = batch_of(1_000, SearchParams::exact(3).with_timing());
        assert_eq!(span_size(&timed, 4), 31);

        // A budgeted batch reaches the index one query at a time.
        let request = budgeted(40);
        let (scan, _) = setup(100);
        let recorder = Recorder { inner: scan, request: &request, calls: Mutex::new(Vec::new()) };
        BatchExecutor::new(4).execute(&recorder, &request);
        let calls = recorder.calls.into_inner().unwrap();
        assert_eq!(calls.len(), 40);
        assert!(calls.iter().all(|call| call.len() == 1));
    }

    #[test]
    fn aggregates_cover_every_query() {
        let (index, queries) = setup(300);
        let n_queries = queries.len();
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        let response = BatchExecutor::new(4).execute(&index, &request);
        assert_eq!(response.results.len(), n_queries);
        assert_eq!(response.latency.count(), n_queries);
        // Linear scan verifies every point for every query.
        assert_eq!(response.total_stats.candidates_verified, (300 * n_queries) as u64);
        assert!(response.wall_time_ns > 0);
        assert!(response.throughput_qps() > 0.0);
    }

    #[test]
    fn empty_batch_is_safe() {
        let (index, _) = setup(10);
        let request = BatchRequest::new(Vec::new(), SearchParams::exact(1));
        let response = BatchExecutor::new(4).execute(&index, &request);
        assert!(response.results.is_empty());
        assert_eq!(response.latency.count(), 0);
        assert_eq!(response.throughput_qps(), 0.0);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let executor = BatchExecutor::new(0);
        assert!(executor.threads() >= 1);
    }
}
