//! # p2h-engine
//!
//! A thread-safe batch-query serving layer over the P2HNNS indexes.
//!
//! The index crates answer one query on one core. This crate adds the serving-side
//! machinery needed to drive them at hardware speed:
//!
//! * [`IndexRegistry`] — a concurrent, name-keyed registry of [`SharedIndex`]es
//!   (`Arc<dyn P2hIndex>`), so many threads can serve queries against the same
//!   immutable index without copying it;
//! * [`BatchRequest`] / [`BatchResponse`] — a batch API with a default
//!   [`SearchParams`] plus optional per-query overrides, returning per-query results
//!   in request order together with aggregated [`SearchStats`] and a
//!   [`LatencyHistogram`] (p50/p95/p99);
//! * [`BatchExecutor`] — a scoped-thread work-stealing executor whose results are
//!   **bit-identical** to sequential execution regardless of thread count (queries are
//!   independent and results are reassembled in request order);
//! * [`Engine`] — the registry and an executor behind one façade: look an index up by
//!   name, validate the request, execute the batch.
//!
//! Index *construction* is parallelized in the tree crate itself: see
//! `BallTreeBuilder::build_parallel` and `BcTreeBuilder::build_parallel`, which build
//! the same tree for every thread count.
//!
//! ## Example
//!
//! ```
//! use p2h_engine::{BatchRequest, Engine};
//! use p2h_core::{HyperplaneQuery, LinearScan, PointSet, SearchParams};
//!
//! let points = PointSet::augment(&[
//!     vec![0.0, 0.0],
//!     vec![1.0, 1.0],
//!     vec![4.0, 0.5],
//! ]).unwrap();
//!
//! let engine = Engine::new(2);
//! engine.registry().register("scan", LinearScan::new(points));
//!
//! let queries = vec![
//!     HyperplaneQuery::from_normal_and_bias(&[1.0, 1.0], -1.8).unwrap(),
//!     HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -3.0).unwrap(),
//! ];
//! let request = BatchRequest::new(queries, SearchParams::exact(1));
//! let response = engine.serve("scan", &request).unwrap();
//! assert_eq!(response.results.len(), 2);
//! assert_eq!(response.results[0].neighbors[0].index, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod batch;
mod executor;
mod metrics;
mod registry;
mod remote;
mod serve;
mod sharded;

pub use batch::{BatchRequest, BatchResponse, LatencyHistogram};
pub use executor::BatchExecutor;
pub use registry::{IndexRegistry, SharedIndex};
pub use remote::RemoteBatchResponse;
pub use serve::{Engine, FrontPath};
pub use sharded::{ShardedBatchResponse, ShardedExecutor};

// Re-exported so engine users can build indexes without naming the tree crate.
pub use p2h_balltree::{BallTree, BallTreeBuilder, BcTree, BcTreeBuilder};
// Re-exported so sharded serving (`Engine::serve_sharded`, shard-group cold starts)
// needs no direct `p2h-shard` dependency at call sites.
pub use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndex, ShardedIndexBuilder};
// Re-exported so cold-start users (`Engine::from_store`) can create and populate the
// snapshot store without adding `p2h-store` as a direct dependency.
pub use p2h_store::{LoadMode, Snapshot, Store, StoreError};
// Re-exported so online-update users (`Engine::serve_live`, `register_live`,
// background compaction policies) need no direct `p2h-live` dependency at call sites.
pub use p2h_live::{
    CompactionPolicy, CompactionReport, CompactionTrigger, Compactor, LiveError, LiveIndex,
    LiveResult,
};
// Re-exported so distributed serving (`Engine::serve_remote`) needs no direct
// `p2h-net` dependency at call sites.
pub use p2h_net::{
    HedgeConfig, NetError, ReplicaSet, RoutedResponse, Router, RouterConfig, ShardServer,
};
// Re-exported so serving operators can reach the process-wide metrics registry
// (`Engine::render_metrics` / `metrics_snapshot` cover the common cases) and the
// streaming histogram type behind `LatencyHistogram`.
pub use p2h_obs::{MetricsRegistry, MetricsSnapshot, StreamingHistogram};
