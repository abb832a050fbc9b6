//! The `Engine` façade: registry + executor + request validation + observability.

use std::sync::Arc;

use p2h_core::{Error, P2hIndex, Result, Scalar, SearchResult};
use p2h_live::{LiveError, LiveIndex};
use p2h_obs::trace::{from_env, QueryTrace, TraceSink};

use crate::batch::{BatchRequest, BatchResponse};
use crate::executor::BatchExecutor;
use crate::metrics::EngineMetrics;
use crate::registry::{Entry, IndexRegistry};
use crate::sharded::{ShardedBatchResponse, ShardedExecutor};

/// A batch-query serving engine: a shared [`IndexRegistry`] plus a [`BatchExecutor`].
///
/// `Engine` is `Send + Sync`; wrap it in an `Arc` and serve batches from any number of
/// threads concurrently. Registration and serving can interleave freely — an index
/// removed mid-flight stays alive until its last in-flight batch completes.
///
/// Every served batch is also published to the process-wide [`p2h_obs`] metrics
/// registry (per-index latency histograms, work counters, per-shard telemetry — see
/// `docs/OBSERVABILITY.md` for the catalog) and, when `P2H_TRACE=path[:rate]` is set,
/// sampled queries are written as JSON-line spans. Neither changes any answer: the
/// instrumentation only adds counter updates (and clock reads for sampled queries),
/// and the disabled/unsampled hot path stays allocation-free per query (pinned by the
/// `obs_overhead` integration test).
#[derive(Debug, Default)]
pub struct Engine {
    registry: IndexRegistry,
    executor: BatchExecutor,
    metrics: EngineMetrics,
}

impl Engine {
    /// Creates an engine whose executor uses `threads` workers per batch (`0` = one per
    /// available CPU).
    pub fn new(threads: usize) -> Self {
        Self {
            registry: IndexRegistry::new(),
            executor: BatchExecutor::new(threads),
            metrics: EngineMetrics::new(),
        }
    }

    /// Cold-starts an engine from a `p2h-store` snapshot directory: every index named
    /// in the store's manifest is loaded (no rebuilding) and registered, and the
    /// executor uses `threads` workers per batch (`0` = one per available CPU).
    ///
    /// # Errors
    ///
    /// Propagates any [`p2h_store::StoreError`] from
    /// [`IndexRegistry::open_dir`] — missing directory/manifest or corrupt snapshots.
    pub fn from_store(
        dir: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> std::result::Result<Self, p2h_store::StoreError> {
        Ok(Self {
            registry: IndexRegistry::open_dir(dir)?,
            executor: BatchExecutor::new(threads),
            metrics: EngineMetrics::new(),
        })
    }

    /// [`Engine::from_store`] with an explicit [`p2h_store::LoadMode`]:
    /// `LoadMode::Mmap` cold-starts by memory-mapping the snapshot files and serving
    /// the index arrays zero-copy out of the mappings (bit-identical answers, near-free
    /// startup, bytes shared between processes via the page cache). The default
    /// [`Engine::from_store`] resolves the mode from the `P2H_STORE_MMAP` environment
    /// variable.
    pub fn from_store_with(
        dir: impl AsRef<std::path::Path>,
        threads: usize,
        mode: p2h_store::LoadMode,
    ) -> std::result::Result<Self, p2h_store::StoreError> {
        Ok(Self {
            registry: IndexRegistry::open_dir_with(dir, mode)?,
            executor: BatchExecutor::new(threads),
            metrics: EngineMetrics::new(),
        })
    }

    /// The index registry (register/lookup/remove indexes here).
    pub fn registry(&self) -> &IndexRegistry {
        &self.registry
    }

    /// The batch executor.
    pub fn executor(&self) -> &BatchExecutor {
        &self.executor
    }

    /// A point-in-time snapshot of the process-wide metrics registry — every series
    /// this engine (and the store layer) has recorded, ready for programmatic
    /// inspection.
    pub fn metrics_snapshot(&self) -> p2h_obs::MetricsSnapshot {
        p2h_obs::global().snapshot()
    }

    /// The process-wide metrics in Prometheus text exposition format: per-index
    /// query-latency histograms (p50/p95/p99 derivable from the log buckets),
    /// per-shard latency, `SearchStats`-derived counters, and store load-stage
    /// timings. See `docs/OBSERVABILITY.md` for the metric catalog.
    pub fn render_metrics(&self) -> String {
        p2h_obs::global().render_text()
    }

    /// Serves a batch against the index registered under `index_name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no index is registered under `index_name`
    /// and [`Error::DimensionMismatch`] if any query's dimension differs from the
    /// index's augmented dimension (checked up front, so a bad query cannot panic a
    /// worker thread mid-batch).
    pub fn serve(&self, index_name: &str, request: &BatchRequest) -> Result<BatchResponse> {
        let index = self.registry.get(index_name).ok_or_else(|| unregistered("", index_name))?;
        self.serve_entry(&Entry::Plain(index), index_name, "batch", request)
    }

    /// Serves a batch against whatever kind of index is registered under
    /// `index_name` — the front-end dispatch path: live indexes serve through the
    /// live tier, plain and sharded indexes through the query-parallel batch
    /// executor.
    ///
    /// The answers are **bit-identical** to [`Engine::serve`] (or
    /// [`Engine::serve_live`] for live names) on the same request; sampled traces are
    /// tagged `path="front"`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no index of any kind is registered
    /// under `index_name`, plus the same validation errors as [`Engine::serve`].
    pub fn serve_front(&self, index_name: &str, request: &BatchRequest) -> Result<BatchResponse> {
        let entry = self.registry.entry(index_name).ok_or_else(|| unregistered("", index_name))?;
        self.serve_entry(&entry, index_name, "front", request)
    }

    /// Serves a batch against the *sharded* index registered under `index_name`,
    /// fanning each query across its shards with a [`ShardedExecutor`] (same worker
    /// count as the engine's batch executor) and returning per-shard latency and work
    /// statistics alongside the merged per-query results.
    ///
    /// The merged results are bit-identical to [`Engine::serve`] on the same name —
    /// only the parallelism shape (across shards vs across queries) and the telemetry
    /// differ, so callers can switch between the two paths freely.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no *sharded* index is registered under
    /// `index_name` (plain indexes serve through [`Engine::serve`]) and the same
    /// validation errors as [`Engine::serve`].
    pub fn serve_sharded(
        &self,
        index_name: &str,
        request: &BatchRequest,
    ) -> Result<ShardedBatchResponse> {
        let index = self
            .registry
            .get_sharded(index_name)
            .ok_or_else(|| unregistered("sharded ", index_name))?;
        let executor = ShardedExecutor::new(self.executor.threads());
        self.pipeline(index_name, "sharded", index.dim(), request, |request| {
            Ok(executor.execute(&index, request))
        })
    }

    /// Registers a live (mutable) index under `name` and returns the shared handle —
    /// shorthand for [`IndexRegistry::register_live`].
    pub fn register_live(&self, name: impl Into<String>, index: LiveIndex) -> Arc<LiveIndex> {
        self.registry.register_live(name, index)
    }

    /// The live index registered under `name`, for direct mutation
    /// (insert/delete/compact) alongside serving.
    pub fn live(&self, name: &str) -> Option<Arc<LiveIndex>> {
        self.registry.get_live(name)
    }

    /// Inserts `rows` (raw, unaugmented points) into the live index registered under
    /// `index_name`, returning the assigned ids. Durable (WAL-fsynced) on return.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` when no live index holds that name; otherwise whatever
    /// [`LiveIndex::insert_batch`] returns (dimension mismatch, WAL I/O failure).
    pub fn live_insert(
        &self,
        index_name: &str,
        rows: &[Vec<Scalar>],
    ) -> std::result::Result<Vec<u32>, LiveError> {
        self.live_handle(index_name)?.insert_batch(rows)
    }

    /// Deletes the point with global id `id` from the live index registered under
    /// `index_name`. Durable (WAL-fsynced) on return.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` when no live index holds that name;
    /// [`LiveError::NotFound`] when `id` is not live; WAL I/O failures.
    pub fn live_delete(&self, index_name: &str, id: u32) -> std::result::Result<(), LiveError> {
        self.live_handle(index_name)?.delete(id)
    }

    fn live_handle(&self, index_name: &str) -> Result<Arc<LiveIndex>> {
        self.registry.get_live(index_name).ok_or_else(|| unregistered("live ", index_name))
    }

    /// Serves a batch against the *live* index registered under `index_name`. Same
    /// validation, metrics, and tracing as [`Engine::serve`]; answers are
    /// bit-identical to a full rebuild containing the same live points. The batch runs
    /// on the calling thread under one read lock of the live tier
    /// ([`LiveIndex::read_view`]), so every query of a batch sees the same live state
    /// and mutations interleave between batches, never inside one. Runs of up to
    /// eight exact queries are answered as one group, as [`Engine::serve`] does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no live index is registered under
    /// `index_name` and the same validation errors as [`Engine::serve`].
    pub fn serve_live(&self, index_name: &str, request: &BatchRequest) -> Result<BatchResponse> {
        let index = self.live_handle(index_name)?;
        self.serve_entry(&Entry::Live(index), index_name, "live", request)
    }

    /// Serves a registry entry on the query-parallel path: the batch executor for an
    /// immutable index; for a live one, the calling thread under one read view (the
    /// background compactor and the writers own the other cores).
    fn serve_entry(
        &self,
        entry: &Entry,
        label: &str,
        path: &str,
        request: &BatchRequest,
    ) -> Result<BatchResponse> {
        let dim = match entry {
            Entry::Plain(index) => index.dim(),
            Entry::Sharded(index) => index.dim(),
            Entry::Live(index) => index.dim(),
        };
        self.pipeline(label, path, dim, request, |request| {
            Ok(match entry {
                Entry::Plain(index) => self.executor.execute(index.as_ref(), request),
                Entry::Sharded(index) => self.executor.execute(index.as_ref(), request),
                Entry::Live(index) => {
                    let view = index.read_view();
                    BatchExecutor::new(1).execute(view.as_index(), request)
                }
            })
        })
    }

    /// Validate → plan-trace → execute → record → write-trace: the one path every
    /// entry point serves through. `execute` answers the request (sampled queries
    /// rewritten to collect timing); anything it locks, such as a live view, is
    /// released when it returns, before the metrics and the trace I/O.
    pub(crate) fn pipeline<R: Executed, E: From<Error>>(
        &self,
        label: &str,
        path: &str,
        dim: usize,
        request: &BatchRequest,
        execute: impl FnOnce(&BatchRequest) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E> {
        validate_request(dim, request)?;
        let trace = plan_trace(request);
        let response = execute(trace.as_ref().map_or(request, |plan| &plan.request))?;
        response.record(&self.metrics, label);
        if let Some(plan) = &trace {
            let (results, latencies_ns) = response.per_query();
            write_traces(plan, label, path, results, latencies_ns);
        }
        Ok(response)
    }
}

/// What the pipeline's record and trace steps read off an executed batch.
pub(crate) trait Executed {
    /// Publishes the batch to `metrics` under `label`.
    fn record(&self, metrics: &EngineMetrics, label: &str);
    /// Per-query results and latencies, in request order.
    fn per_query(&self) -> (&[SearchResult], &[u64]);
}

impl Executed for BatchResponse {
    fn record(&self, metrics: &EngineMetrics, label: &str) {
        metrics.record_batch(label, self);
    }

    fn per_query(&self) -> (&[SearchResult], &[u64]) {
        (&self.results, &self.latencies_ns)
    }
}

impl Executed for ShardedBatchResponse {
    fn record(&self, metrics: &EngineMetrics, label: &str) {
        metrics.record_sharded(label, self);
    }

    fn per_query(&self) -> (&[SearchResult], &[u64]) {
        (&self.results, &self.latencies_ns)
    }
}

/// The error for a name that holds no index of the kind asked for (`kind` is `""`,
/// `"sharded "` or `"live "`).
fn unregistered(kind: &str, index_name: &str) -> Error {
    Error::InvalidParameter {
        name: "index_name",
        message: format!("no {kind}index registered under `{index_name}`"),
    }
}

/// The sink plus everything execution needs when at least one query of a batch is
/// sampled: the rewritten request (sampled queries get `collect_timing`) and the
/// sampled `(position, trace sequence number)` pairs.
struct TracePlan {
    sink: &'static TraceSink,
    request: BatchRequest,
    sampled: Vec<(usize, u64)>,
}

/// Decides up front which queries of this batch are sampled for tracing. Returns
/// `None` (and touches nothing) when tracing is disabled or no query won the sampling
/// draw; otherwise returns a copy of the request whose sampled queries have
/// `collect_timing` enabled — clock reads only, answers unchanged.
fn plan_trace(request: &BatchRequest) -> Option<TracePlan> {
    let sink = from_env()?;
    let sampled: Vec<(usize, u64)> =
        (0..request.queries.len()).filter_map(|i| sink.sample().map(|seq| (i, seq))).collect();
    if sampled.is_empty() {
        return None;
    }
    let mut traced = request.clone();
    for &(position, _) in &sampled {
        let mut params = request.params_for(position).clone();
        params.collect_timing = true;
        traced.overrides.push((position, params));
    }
    Some(TracePlan { sink, request: traced, sampled })
}

/// Writes one JSON-line span per sampled query of a completed batch.
fn write_traces(
    plan: &TracePlan,
    index: &str,
    path: &str,
    results: &[SearchResult],
    latencies_ns: &[u64],
) {
    for &(position, seq) in &plan.sampled {
        let params = plan.request.params_for(position);
        let stats = &results[position].stats;
        let latency_ns = latencies_ns[position];
        let attributed = stats
            .time_bounds_ns
            .saturating_add(stats.time_verify_ns)
            .saturating_add(stats.time_lookup_ns)
            .saturating_add(stats.time_merge_ns);
        plan.sink.write(&QueryTrace {
            seq,
            index,
            path,
            query: position,
            k: params.k as u64,
            candidate_limit: params.candidate_limit.map(|c| c as u64),
            latency_ns,
            stage_bounds_ns: stats.time_bounds_ns,
            stage_verify_ns: stats.time_verify_ns,
            stage_lookup_ns: stats.time_lookup_ns,
            stage_merge_ns: stats.time_merge_ns,
            stage_other_ns: latency_ns.saturating_sub(attributed),
            nodes_visited: stats.nodes_visited,
            candidates_verified: stats.candidates_verified,
            pruned_subtrees: stats.pruned_subtrees,
            result_len: results[position].neighbors.len() as u64,
        });
    }
}

/// Up-front request validation shared by every serving path: dimension mismatches
/// (against `dim`) and out-of-range overrides are errors, not worker-thread panics or
/// silent no-ops.
fn validate_request(dim: usize, request: &BatchRequest) -> Result<()> {
    for query in &request.queries {
        if query.dim() != dim {
            return Err(Error::DimensionMismatch { expected: dim, actual: query.dim() });
        }
    }
    for &(position, _) in &request.overrides {
        if position >= request.queries.len() {
            return Err(Error::InvalidParameter {
                name: "overrides",
                message: format!(
                    "override targets position {position} but the batch has {} queries",
                    request.queries.len()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{HyperplaneQuery, LinearScan, PointSet, Scalar, SearchParams};

    fn engine_with_scan() -> Engine {
        let rows: Vec<Vec<Scalar>> =
            (0..100).map(|i| vec![i as Scalar * 0.1, (i % 5) as Scalar]).collect();
        let engine = Engine::new(2);
        engine.registry().register("scan", LinearScan::new(PointSet::augment(&rows).unwrap()));
        engine
    }

    #[test]
    fn serves_registered_indexes() {
        let engine = engine_with_scan();
        let queries = vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -2.0).unwrap()];
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        let response = engine.serve("scan", &request).unwrap();
        assert_eq!(response.results.len(), 1);
        assert_eq!(response.results[0].neighbors.len(), 3);
    }

    #[test]
    fn unknown_index_is_an_error() {
        let engine = engine_with_scan();
        let request = BatchRequest::new(Vec::new(), SearchParams::exact(1));
        assert!(matches!(
            engine.serve("nope", &request),
            Err(Error::InvalidParameter { name: "index_name", .. })
        ));
    }

    #[test]
    fn out_of_range_override_is_an_error_not_a_silent_noop() {
        let engine = engine_with_scan();
        let queries = vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -2.0).unwrap()];
        let request = BatchRequest::new(queries, SearchParams::exact(3))
            .with_override(1, SearchParams::approximate(3, 10));
        assert!(matches!(
            engine.serve("scan", &request),
            Err(Error::InvalidParameter { name: "overrides", .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let engine = engine_with_scan();
        let wrong_dim = vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap()];
        let request = BatchRequest::new(wrong_dim, SearchParams::exact(1));
        assert!(matches!(
            engine.serve("scan", &request),
            Err(Error::DimensionMismatch { expected: 3, actual: 4 })
        ));
    }

    #[test]
    fn serve_front_dispatches_and_stays_bit_identical() {
        use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
        let engine = engine_with_scan();
        let rows: Vec<Vec<Scalar>> =
            (0..100).map(|i| vec![i as Scalar * 0.1, (i % 5) as Scalar]).collect();
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Contiguous { shards: 2 },
            ShardIndexKind::LinearScan,
        )
        .build(&PointSet::augment(&rows).unwrap())
        .unwrap();
        engine.registry().register_sharded("sh", sharded);

        let make_request = |n: usize| {
            let queries: Vec<HyperplaneQuery> = (0..n)
                .map(|i| {
                    HyperplaneQuery::from_normal_and_bias(&[1.0, i as Scalar * 0.3], -2.0).unwrap()
                })
                .collect();
            BatchRequest::new(queries, SearchParams::exact(4))
        };
        let assert_same = |a: &BatchResponse, b: &BatchResponse| {
            assert_eq!(a.results.len(), b.results.len());
            for (x, y) in a.results.iter().zip(&b.results) {
                let xb: Vec<(usize, u32)> =
                    x.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect();
                let yb: Vec<(usize, u32)> =
                    y.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect();
                assert_eq!(xb, yb);
            }
        };

        // Plain and sharded names, small and large batches: the query-parallel path,
        // bit-identical to `serve`.
        let request = make_request(3);
        assert_same(
            &engine.serve_front("scan", &request).unwrap(),
            &engine.serve("scan", &request).unwrap(),
        );
        let small = make_request(2);
        assert_same(
            &engine.serve_front("sh", &small).unwrap(),
            &engine.serve("sh", &small).unwrap(),
        );
        let large = make_request(16);
        assert_same(
            &engine.serve_front("sh", &large).unwrap(),
            &engine.serve("sh", &large).unwrap(),
        );

        // Unknown names are typed errors on the front path too.
        assert!(matches!(
            engine.serve_front("nope", &small),
            Err(Error::InvalidParameter { name: "index_name", .. })
        ));
    }

    #[test]
    fn serving_populates_the_exposition_dump() {
        let engine = engine_with_scan();
        let queries: Vec<HyperplaneQuery> = (0..6)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(&[1.0, i as Scalar * 0.2], -2.0).unwrap()
            })
            .collect();
        let request = BatchRequest::new(queries, SearchParams::exact(2));
        engine.serve("scan", &request).unwrap();

        let snapshot = engine.metrics_snapshot();
        let labels: &[(&str, &str)] = &[("index", "scan")];
        assert!(snapshot.series("p2h_queries_total", labels).unwrap().value.scalar() >= 6);
        let text = engine.render_metrics();
        assert!(text.contains("p2h_query_latency_ns_bucket{index=\"scan\""));
        assert!(text.contains("p2h_search_candidates_verified_total{index=\"scan\"}"));
    }
}
