//! The `Engine` façade: registry + executor + request validation + observability.

use std::sync::Arc;

use p2h_core::{Error, P2hIndex, Result, Scalar, SearchResult};
use p2h_live::{LiveError, LiveIndex};
use p2h_obs::trace::{from_env, QueryTrace, TraceSink};

use crate::batch::{BatchRequest, BatchResponse};
use crate::executor::BatchExecutor;
use crate::metrics::EngineMetrics;
use crate::registry::{IndexRegistry, SharedIndex};
use crate::sharded::{ShardedBatchResponse, ShardedExecutor};

/// Which execution path [`Engine::serve_front`] dispatched a batch to.
///
/// Every path returns answers **bit-identical** to [`Engine::serve`] /
/// [`Engine::serve_live`] on the same name — the choice is purely a performance
/// decision, so a front-end can log it (`p2h_front_dispatch_total{path=…}`) without
/// callers ever observing a difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontPath {
    /// The live (mutable) tier answered.
    Live,
    /// A sharded index answered through the shard-parallel [`ShardedExecutor`].
    ShardParallel,
    /// The query-parallel [`BatchExecutor`] answered — a plain index, or a sharded
    /// one the routing heuristic judged better served across queries.
    QueryParallel,
}

impl FrontPath {
    /// A stable label value for dispatch counters.
    pub fn as_str(self) -> &'static str {
        match self {
            FrontPath::Live => "live",
            FrontPath::ShardParallel => "shard_parallel",
            FrontPath::QueryParallel => "query_parallel",
        }
    }
}

/// Minimum recorded sub-searches per shard before the dispatch heuristic trusts the
/// observed `p2h_shard_latency_ns` distributions over its static default.
const DISPATCH_MIN_SHARD_SAMPLES: u64 = 64;

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
    pub(crate) metrics: EngineMetrics,
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
        let index = self.registry.get(index_name).ok_or_else(|| Error::InvalidParameter {
            name: "index_name",
            message: format!("no index registered under `{index_name}`"),
        })?;
        self.serve_named(index.as_ref(), index_name, request, "batch")
    }

    /// Serves a batch against whatever kind of index is registered under
    /// `index_name` — the front-end dispatch path: live indexes serve through the
    /// live tier, sharded indexes through whichever executor shape the routing
    /// heuristic predicts is faster, and plain indexes through the batch executor.
    /// Returns the response together with the [`FrontPath`] actually taken.
    ///
    /// The answers are **bit-identical** to [`Engine::serve`] (or
    /// [`Engine::serve_live`] for live names) on the same request regardless of the
    /// path chosen; sampled traces are tagged `path="front"`.
    ///
    /// Routing for sharded names: small batches (fewer than `2 × shards` queries)
    /// fan each query across shards, which cuts tail latency when workers would
    /// otherwise idle — *unless* the observed per-shard p99s
    /// (`p2h_shard_latency_ns`) say one shard is a ≥4× straggler, in which case
    /// fan-out would gate every query on it and query-parallel wins. Large batches
    /// always go query-parallel (every worker stays busy without fan-out/merge
    /// overhead).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no index of any kind is registered
    /// under `index_name`, plus the same validation errors as [`Engine::serve`].
    pub fn serve_front(
        &self,
        index_name: &str,
        request: &BatchRequest,
    ) -> Result<(BatchResponse, FrontPath)> {
        if let Some(live) = self.registry.get_live(index_name) {
            let response = self.serve_live_on(&live, index_name, request, "front")?;
            return Ok((response, FrontPath::Live));
        }
        if let Some(sharded) = self.registry.get_sharded(index_name) {
            if self.prefer_shard_parallel(index_name, sharded.shard_count(), request.queries.len())
            {
                let response = self.serve_sharded_on(&sharded, index_name, request, "front")?;
                return Ok((flatten_sharded(response), FrontPath::ShardParallel));
            }
            // Fall through: the trait-object map holds the same index, so the
            // query-parallel executor serves it bit-identically.
        }
        let index = self.registry.get(index_name).ok_or_else(|| Error::InvalidParameter {
            name: "index_name",
            message: format!("no index registered under `{index_name}`"),
        })?;
        let response = self.serve_named(index.as_ref(), index_name, request, "front")?;
        Ok((response, FrontPath::QueryParallel))
    }

    /// The shard-vs-query parallelism call for [`Engine::serve_front`].
    fn prefer_shard_parallel(&self, index_name: &str, shards: usize, batch: usize) -> bool {
        if batch >= shards.saturating_mul(2).max(2) {
            return false; // enough queries to saturate workers without fan-out
        }
        match self.metrics.shard_latency_p99s(index_name, DISPATCH_MIN_SHARD_SAMPLES) {
            Some(p99s) if !p99s.is_empty() => {
                let mut sorted = p99s;
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2].max(1);
                let slowest = *sorted.last().expect("non-empty");
                // A heavy straggler shard gates every fanned-out query on itself.
                slowest < median.saturating_mul(4)
            }
            // No (or not enough) observations yet: default to fan-out for small
            // batches — the static half of the heuristic.
            _ => true,
        }
    }

    /// Serves a batch against an explicit index handle (skips the registry lookup).
    /// Metrics for this path are labeled with the index's method name
    /// ([`P2hIndex::name`]) since no registered name exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on any query/index dimension mismatch and
    /// [`Error::InvalidParameter`] if an override targets a position outside the batch
    /// (a silent no-op otherwise — almost certainly an off-by-one at the call site).
    pub fn serve_index(
        &self,
        index: &SharedIndex,
        request: &BatchRequest,
    ) -> Result<BatchResponse> {
        self.serve_named(index.as_ref(), index.name(), request, "batch")
    }

    /// Validate → plan-trace → execute → record → write-trace.
    fn serve_named(
        &self,
        index: &dyn P2hIndex,
        label: &str,
        request: &BatchRequest,
        path: &str,
    ) -> Result<BatchResponse> {
        let (trace, response) = execute_planned(&self.executor, index, request)?;
        Ok(self.record(label, path, trace.as_ref(), response))
    }

    /// Record → write-trace: the steps that no longer read the index.
    fn record(
        &self,
        label: &str,
        path: &str,
        trace: Option<&TracePlan>,
        response: BatchResponse,
    ) -> BatchResponse {
        self.metrics.record_batch(label, &response);
        if let Some(plan) = trace {
            write_traces(plan, label, path, &response.results, &response.latencies_ns);
        }
        response
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
        let index =
            self.registry.get_sharded(index_name).ok_or_else(|| Error::InvalidParameter {
                name: "index_name",
                message: format!("no sharded index registered under `{index_name}`"),
            })?;
        self.serve_sharded_on(&index, index_name, request, "sharded")
    }

    fn serve_sharded_on(
        &self,
        index: &Arc<p2h_shard::ShardedIndex>,
        label: &str,
        request: &BatchRequest,
        path: &str,
    ) -> Result<ShardedBatchResponse> {
        validate_request(index.as_ref(), request)?;
        let executor = ShardedExecutor::new(self.executor.threads());
        let trace = plan_trace(request);
        let response = match &trace {
            Some(plan) => executor.execute(index, &plan.request),
            None => executor.execute(index, request),
        };
        self.metrics.record_sharded(label, &response);
        if let Some(plan) = &trace {
            write_traces(plan, label, path, &response.results, &response.latencies_ns);
        }
        Ok(response)
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

    fn live_handle(&self, index_name: &str) -> std::result::Result<Arc<LiveIndex>, LiveError> {
        self.registry.get_live(index_name).ok_or_else(|| {
            LiveError::Core(Error::InvalidParameter {
                name: "index_name",
                message: format!("no live index registered under `{index_name}`"),
            })
        })
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
        let index = self.registry.get_live(index_name).ok_or_else(|| Error::InvalidParameter {
            name: "index_name",
            message: format!("no live index registered under `{index_name}`"),
        })?;
        self.serve_live_on(&index, index_name, request, "live")
    }

    fn serve_live_on(
        &self,
        index: &Arc<LiveIndex>,
        label: &str,
        request: &BatchRequest,
        path: &str,
    ) -> Result<BatchResponse> {
        // The background compactor and the writers own the other cores: the calling
        // thread is the one worker.
        let view = index.read_view();
        let (trace, response) = execute_planned(&BatchExecutor::new(1), view.as_index(), request)?;
        // Writers wait on the read lock: release it before the metrics and the trace I/O.
        drop(view);
        Ok(self.record(label, path, trace.as_ref(), response))
    }
}

/// Drops the per-shard telemetry off a [`ShardedBatchResponse`], leaving the merged
/// per-query payload a front-end actually returns to clients. The results, latencies,
/// and stats are moved, not recomputed — bit-for-bit what the sharded path produced.
fn flatten_sharded(response: ShardedBatchResponse) -> BatchResponse {
    BatchResponse {
        results: response.results,
        latencies_ns: response.latencies_ns,
        latency: response.latency,
        total_stats: response.total_stats,
        wall_time_ns: response.wall_time_ns,
    }
}

/// The sink plus everything execution needs when at least one query of a batch is
/// sampled: the rewritten request (sampled queries get `collect_timing`) and the
/// sampled `(position, trace sequence number)` pairs.
pub(crate) struct TracePlan {
    sink: &'static TraceSink,
    pub(crate) request: BatchRequest,
    sampled: Vec<(usize, u64)>,
}

/// Decides up front which queries of this batch are sampled for tracing. Returns
/// `None` (and touches nothing) when tracing is disabled or no query won the sampling
/// draw; otherwise returns a copy of the request whose sampled queries have
/// `collect_timing` enabled — clock reads only, answers unchanged.
pub(crate) fn plan_trace(request: &BatchRequest) -> Option<TracePlan> {
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
pub(crate) fn write_traces(
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

/// Validate → plan-trace → execute: the steps that read the index.
fn execute_planned(
    executor: &BatchExecutor,
    index: &dyn P2hIndex,
    request: &BatchRequest,
) -> Result<(Option<TracePlan>, BatchResponse)> {
    validate_request(index, request)?;
    let trace = plan_trace(request);
    let response = executor.execute(index, trace.as_ref().map_or(request, |plan| &plan.request));
    Ok((trace, response))
}

/// Up-front request validation shared by every serving path: dimension mismatches and
/// out-of-range overrides are errors, not worker-thread panics or silent no-ops.
fn validate_request(index: &dyn P2hIndex, request: &BatchRequest) -> Result<()> {
    let dim = index.dim();
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

        // Plain index: the only path is query-parallel.
        let request = make_request(3);
        let (front, path) = engine.serve_front("scan", &request).unwrap();
        assert_eq!(path, FrontPath::QueryParallel);
        assert_same(&front, &engine.serve("scan", &request).unwrap());

        // Sharded, small batch (< 2×shards): fan-out across shards.
        let small = make_request(2);
        let (front, path) = engine.serve_front("sh", &small).unwrap();
        assert_eq!(path, FrontPath::ShardParallel);
        assert_same(&front, &engine.serve("sh", &small).unwrap());

        // Sharded, large batch: query-parallel wins.
        let large = make_request(16);
        let (front, path) = engine.serve_front("sh", &large).unwrap();
        assert_eq!(path, FrontPath::QueryParallel);
        assert_same(&front, &engine.serve("sh", &large).unwrap());

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
