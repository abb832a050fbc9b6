//! Router-backed serving: the distributed counterpart of [`Engine::serve_sharded`].
//!
//! [`Engine::serve_remote`] pushes a [`BatchRequest`] through a [`p2h_net::Router`]
//! instead of a local index: per-position overrides are resolved into effective
//! parameters client-side (the wire carries no override table), queries travel
//! bit-exactly, and the router's merge is the same deterministic `merge_topk` the
//! local fan-out uses — so the merged answers are **bit-identical** to
//! [`Engine::serve`] against the same index served locally. The engine-side
//! trimmings are identical too: request validation up front, per-index metrics into
//! the process-wide registry, and `P2H_TRACE` sampling (spans are tagged with path
//! `"remote"`).

use std::time::Instant;

use p2h_core::{SearchParams, SearchResult};
use p2h_net::{NetResult, Router};

use crate::batch::{BatchRequest, BatchResponse, LatencyHistogram};
use crate::metrics::EngineMetrics;
use crate::serve::{Engine, Executed};

/// A batch served through a [`Router`], plus the explicit degraded-mode record.
#[derive(Debug, Clone)]
pub struct RemoteBatchResponse {
    /// The merged per-query results and batch telemetry, shaped exactly like a
    /// locally served batch. Per-query latency is the batch's network wall time
    /// (the fan-out answers a batch as a unit, so per-query attribution does not
    /// exist on this path).
    pub batch: BatchResponse,
    /// Shards that did not contribute. Non-empty only when the router was built
    /// with `allow_partial` — degradation is opt-in and always explicit.
    pub missing_shards: Vec<usize>,
}

impl RemoteBatchResponse {
    /// Whether every shard contributed to every answer.
    pub fn is_complete(&self) -> bool {
        self.missing_shards.is_empty()
    }
}

impl Engine {
    /// Serves a batch through `router` against a remotely sharded deployment.
    /// `label` names the served entry in metrics and traces (the role
    /// `index_name` plays on the local paths).
    ///
    /// # Errors
    ///
    /// [`p2h_net::NetError::InvalidRequest`] for client-side validation failures (a query
    /// whose dimension differs from the first query's, out-of-range overrides), any
    /// other `NetError` for routing failures. An unreachable shard is an error unless
    /// the router opted into partial responses, in which case it lands in
    /// [`RemoteBatchResponse::missing_shards`] instead.
    pub fn serve_remote(
        &self,
        label: &str,
        router: &Router,
        request: &BatchRequest,
    ) -> NetResult<RemoteBatchResponse> {
        // The index's dimension lives on the servers; the first query's stands in.
        let dim = request.queries.first().map_or(0, |query| query.dim());
        self.pipeline(label, "remote", dim, request, |request| {
            let start = Instant::now();
            // Resolve overrides into flat per-query params — the server never sees the
            // override table, so "last override wins" is decided here, identically to
            // the local paths.
            let params: Vec<SearchParams> =
                (0..request.queries.len()).map(|i| request.params_for(i).clone()).collect();
            let routed = router.route(&request.queries, &params)?;

            let wall_time_ns = start.elapsed().as_nanos() as u64;
            let mut latency = LatencyHistogram::new();
            let mut total_stats = p2h_core::SearchStats::default();
            for result in &routed.results {
                total_stats.merge(&result.stats);
                latency.record(wall_time_ns);
            }
            let batch = BatchResponse {
                latencies_ns: vec![wall_time_ns; routed.results.len()],
                results: routed.results,
                total_stats,
                latency,
                wall_time_ns,
            };
            Ok(RemoteBatchResponse { batch, missing_shards: routed.missing_shards })
        })
    }
}

impl Executed for RemoteBatchResponse {
    fn record(&self, metrics: &EngineMetrics, label: &str) {
        self.batch.record(metrics, label);
    }

    fn per_query(&self) -> (&[SearchResult], &[u64]) {
        self.batch.per_query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use p2h_core::{HyperplaneQuery, PointSet, Scalar, SearchParams};
    use p2h_net::{NetError, ReplicaSet, RouterConfig, ShardServer};
    use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};

    fn setup() -> (Arc<p2h_shard::ShardedIndex>, Vec<HyperplaneQuery>) {
        let rows: Vec<Vec<Scalar>> = (0..300)
            .map(|i| vec![(i % 23) as Scalar * 0.7 - 8.0, (i % 11) as Scalar * 0.5])
            .collect();
        let points = PointSet::augment(&rows).unwrap();
        let index =
            ShardedIndexBuilder::new(Partitioner::Hash { shards: 3 }, ShardIndexKind::LinearScan)
                .build(&points)
                .unwrap();
        let queries = (0..12)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(
                    &[1.0, (i as Scalar * 0.37).sin()],
                    -(i as Scalar * 0.3) + 1.0,
                )
                .unwrap()
            })
            .collect();
        (Arc::new(index), queries)
    }

    /// `serve_remote` over real sockets is bit-identical to `serve` against the
    /// same index registered locally — including per-position overrides.
    #[test]
    fn remote_serving_matches_local_serving_bit_for_bit() {
        let (index, queries) = setup();
        let engine = Engine::new(2);
        engine.registry().register_shared("local", Arc::clone(&index) as _);

        let server = ShardServer::new(Arc::clone(&index)).serve("127.0.0.1:0").unwrap();
        let replicas: Vec<ReplicaSet> =
            (0..3).map(|_| ReplicaSet::new([server.addr().to_string()])).collect();
        // Generous budgets: the defaults (2s deadline) can flake on a loaded
        // single-CPU CI box.
        let mut config = RouterConfig::new("remote-test", replicas);
        config.deadline = std::time::Duration::from_secs(30);
        config.connect_timeout = std::time::Duration::from_secs(5);
        config.max_retries = 6;
        let router = Router::new(config).unwrap();

        let request = BatchRequest::new(queries, SearchParams::exact(7))
            .with_override(1, SearchParams::approximate(4, 80))
            .with_override(5, SearchParams::exact(2));
        let local = engine.serve("local", &request).unwrap();
        let remote = engine.serve_remote("remote-test", &router, &request).unwrap();

        assert!(remote.is_complete());
        assert_eq!(remote.batch.results.len(), local.results.len());
        for (position, (r, l)) in remote.batch.results.iter().zip(&local.results).enumerate() {
            assert_eq!(r.neighbors.len(), l.neighbors.len(), "query {position}");
            for (rank, (rn, ln)) in r.neighbors.iter().zip(&l.neighbors).enumerate() {
                assert_eq!(
                    (rn.index, rn.distance.to_bits()),
                    (ln.index, ln.distance.to_bits()),
                    "query {position} rank {rank}"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn remote_validation_is_client_side_and_typed() {
        let (_, queries) = setup();
        let engine = Engine::new(1);
        let replicas = vec![ReplicaSet::new(["127.0.0.1:1"])];
        let router = Router::new(RouterConfig::new("unused", replicas)).unwrap();

        let request = BatchRequest::new(queries.clone(), SearchParams::exact(3))
            .with_override(99, SearchParams::exact(1));
        match engine.serve_remote("unused", &router, &request) {
            Err(NetError::InvalidRequest { message }) => {
                assert!(message.contains("position 99"), "{message}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }

        // A query whose dimension differs from the first query's.
        let mut mixed = queries;
        mixed.push(HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 2.0], 0.5).unwrap());
        match engine.serve_remote(
            "unused",
            &router,
            &BatchRequest::new(mixed, SearchParams::exact(3)),
        ) {
            Err(NetError::InvalidRequest { message }) => {
                assert!(message.contains("expected 3, got 4"), "{message}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }
}
