//! # p2hnns — Point-to-Hyperplane Nearest Neighbor Search
//!
//! A Rust implementation of "Lightweight-Yet-Efficient: Revitalizing Ball-Tree for
//! Point-to-Hyperplane Nearest Neighbor Search" (Huang & Tung, ICDE 2023): the Ball-Tree
//! and BC-Tree indexes for finding the data points closest to a hyperplane query,
//! together with the NH/FH hashing baselines, synthetic data generators, an evaluation
//! harness, and a benchmark suite reproducing every table and figure of the paper.
//!
//! This facade crate re-exports the public API of the workspace crates under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `p2h-core` | [`PointSet`], [`HyperplaneQuery`], [`P2hIndex`], [`LinearScan`], top-k, distances |
//! | [`balltree`] | `p2h-balltree` | [`BallTree`], [`BallTreeBuilder`] (Section III); [`BcTree`], [`BcTreeBuilder`], [`BcTreeVariant`] (Section IV) |
//! | [`hash`] | `p2h-hash` | [`NhIndex`], [`FhIndex`] baselines (Huang et al., SIGMOD'21) |
//! | [`data`] | `p2h-data` | synthetic data sets, query generation, ground truth, IO |
//! | [`eval`] | `p2h-eval` | recall/time evaluation (sequential + parallel), sweeps, time profiles, reports |
//! | [`engine`] | `p2h-engine` | concurrent batch-query serving: index registry, parallel batch executor, latency histograms |
//! | [`store`] | `p2h-store` | persistent snapshots: checksummed container, directory store, shard groups |
//! | [`shard`] | `p2h-shard` | sharded serving: partitioners, per-shard builds, deterministic fan-out top-k merge |
//! | [`obs`] | `p2h-obs` | observability: lock-free metrics registry, mergeable log-bucket histograms, Prometheus text exposition, sampled query tracing, deterministic fault injection |
//! | [`net`] | `p2h-net` | fault-tolerant distributed serving: TCP shard servers, replicated router with retries, hedged requests, and replica cross-checking |
//! | [`live`] | `p2h-live` | online updates: WAL-backed mutable memtable tier over immutable bases, epoch compaction, bit-identical layered serving |
//! | [`front`] | `p2h-front` | serving front-end: poll(2) event loops, dynamic batching (coalescing), admission control with typed load shedding, zero-downtime engine reloads |
//!
//! ## Quickstart
//!
//! ```
//! use p2hnns::{BcTreeBuilder, HyperplaneQuery, P2hIndex, PointSet};
//!
//! // Three raw 2-D points; the library appends the constant 1 internally.
//! let points = PointSet::augment(&[
//!     vec![0.0, 0.0],
//!     vec![1.0, 1.0],
//!     vec![4.0, 0.5],
//! ]).unwrap();
//!
//! // The hyperplane x + y - 1.8 = 0.
//! let query = HyperplaneQuery::from_normal_and_bias(&[1.0, 1.0], -1.8).unwrap();
//!
//! let index = BcTreeBuilder::new(2).build(&points).unwrap();
//! let result = index.search_exact(&query, 1);
//! assert_eq!(result.neighbors[0].index, 1); // (1, 1) is nearest to the hyperplane
//! ```
//!
//! ## Serving query batches concurrently
//!
//! Single queries answer on one core. For serving-style workloads, the [`engine`] layer
//! shares one immutable index across worker threads ([`P2hIndex`] is `Send + Sync`),
//! executes batches in parallel with **bit-identical results to sequential execution**,
//! and reports latency percentiles:
//!
//! ```
//! use p2hnns::engine::{BatchRequest, Engine};
//! use p2hnns::{generate_queries, BcTreeBuilder, DataDistribution, QueryDistribution,
//!              SearchParams, SyntheticDataset};
//!
//! let points = SyntheticDataset::new(
//!     "quickstart-engine", 2_000, 16,
//!     DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.5 }, 1,
//! ).generate().unwrap();
//!
//! // Parallel recursive construction: the same tree for a given seed at every
//! // thread count.
//! let tree = BcTreeBuilder::new(64).build_parallel(&points, 0).unwrap();
//!
//! let engine = Engine::new(0); // 0 = one worker thread per CPU
//! engine.registry().register("bc", tree);
//!
//! let queries = generate_queries(&points, 8, QueryDistribution::DataDifference, 2).unwrap();
//! let request = BatchRequest::new(queries, SearchParams::exact(10))
//!     .with_override(0, SearchParams::approximate(10, 200)); // per-query params
//!
//! let response = engine.serve("bc", &request).unwrap();
//! assert_eq!(response.results.len(), 8);
//! println!("{} qps, {}", response.throughput_qps(), response.latency.summary_ms());
//! ```
//!
//! ## Sharded serving
//!
//! For data sets beyond one index's comfort zone, the [`shard`] layer partitions the
//! points across several indexes and fans every query out with a deterministic top-k
//! merge. Because the [`Neighbor`] order is total and every shard computes distances
//! with the same kernels, the merged answer is **bit-identical** to an unsharded
//! index over the same points — sharding is purely an operational decision:
//!
//! ```
//! use p2hnns::shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
//! use p2hnns::engine::{BatchRequest, Engine};
//! use p2hnns::{generate_queries, DataDistribution, LinearScan, P2hIndex,
//!              QueryDistribution, SearchParams, SyntheticDataset};
//!
//! let points = SyntheticDataset::new(
//!     "quickstart-shard", 3_000, 12,
//!     DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.5 }, 2,
//! ).generate().unwrap();
//!
//! // 4 hash-scattered shards, one BC-Tree per shard.
//! let sharded = ShardedIndexBuilder::new(
//!     Partitioner::Hash { shards: 4 },
//!     ShardIndexKind::BcTree { leaf_size: 64 },
//! ).build(&points).unwrap();
//!
//! let engine = Engine::new(0);
//! engine.registry().register_sharded("p2h", sharded);
//!
//! let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 9).unwrap();
//! let request = BatchRequest::new(queries, SearchParams::exact(5));
//!
//! // Same `BatchRequest` API as any other index; `serve_sharded` adds per-shard
//! // latency histograms and fans each query across the shards.
//! let response = engine.serve("p2h", &request).unwrap();
//! let fanout = engine.serve_sharded("p2h", &request).unwrap();
//! assert_eq!(fanout.per_shard_latency.len(), 4);
//!
//! // Bit-identical to the unsharded oracle.
//! let oracle = LinearScan::new(points);
//! for (i, result) in response.results.iter().enumerate() {
//!     let expected = oracle.search(&request.queries[i], request.params_for(i));
//!     assert_eq!(result.neighbors, expected.neighbors);
//!     assert_eq!(result.neighbors, fanout.results[i].neighbors);
//! }
//! ```
//!
//! ## Metrics and tracing
//!
//! Serving is instrumented end to end: every `Engine::serve`/`serve_sharded` call
//! records per-index query-latency histograms, batch sizes, per-shard latency, and
//! every [`SearchStats`] counter into a process-wide lock-free registry ([`obs`]),
//! and the store layer publishes snapshot load timings split into read/CRC/decode
//! stages. `Engine::render_metrics` returns the whole registry in Prometheus text
//! exposition format; recording costs no per-query allocation or atomics (see
//! `docs/OBSERVABILITY.md` for the metric catalog and the `P2H_TRACE` sampled
//! query-tracing facility):
//!
//! ```
//! use p2hnns::engine::{BatchRequest, Engine};
//! use p2hnns::{generate_queries, BcTreeBuilder, DataDistribution, QueryDistribution,
//!              SearchParams, SyntheticDataset};
//!
//! let points = SyntheticDataset::new(
//!     "quickstart-metrics", 2_000, 12,
//!     DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.5 }, 4,
//! ).generate().unwrap();
//! let tree = BcTreeBuilder::new(64).build(&points).unwrap();
//!
//! let engine = Engine::new(0);
//! engine.registry().register("bc", tree);
//! let queries = generate_queries(&points, 8, QueryDistribution::DataDifference, 6).unwrap();
//! engine.serve("bc", &BatchRequest::new(queries, SearchParams::exact(5))).unwrap();
//!
//! // Prometheus text exposition: scrape-ready, deterministic ordering.
//! let dump = engine.render_metrics();
//! assert!(dump.contains("p2h_query_latency_ns_bucket{index=\"bc\""));
//!
//! // Or inspect programmatically: p99 from the streaming log-bucket histogram.
//! let snapshot = engine.metrics_snapshot();
//! let series = snapshot.series("p2h_query_latency_ns", &[("index", "bc")]).unwrap();
//! let p99_ns = series.value.histogram().unwrap().quantile(0.99);
//! assert!(p99_ns > 0);
//! ```
//!
//! A sharded index persists as a *shard group* — one snapshot per shard plus an
//! id-map file, committed atomically through the store manifest
//! (`ShardedIndex::save_into`), and [`engine::Engine::from_store`] cold-starts it
//! together with every other index in the directory.
//!
//! ## Zero-copy cold start
//!
//! Snapshots (format v2) keep every array payload 8-byte aligned, so a serving
//! process can cold-start by **memory-mapping** the snapshot files instead of copying
//! them: pass [`LoadMode::Mmap`] (or set `P2H_STORE_MMAP=1`) and every large
//! read-only array — point payloads, tree centers, id permutations, projection
//! tables — becomes a [`VecBuf`] view into the mapping. Startup cost drops to one
//! checksum pass per file, peak RSS no longer doubles, and the page cache shares the
//! bytes between every process serving the same store. Answers are **bit-identical**
//! to a copying or freshly built index:
//!
//! ```
//! use p2hnns::engine::{BatchRequest, Engine};
//! use p2hnns::{generate_queries, BcTreeBuilder, DataDistribution, LoadMode, P2hIndex,
//!              QueryDistribution, SearchParams, Store, SyntheticDataset};
//!
//! let points = SyntheticDataset::new(
//!     "quickstart-mmap", 2_000, 12,
//!     DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.5 }, 3,
//! ).generate().unwrap();
//! let tree = BcTreeBuilder::new(64).build(&points).unwrap();
//!
//! // Offline: snapshot once.
//! let dir = std::env::temp_dir().join("p2hnns-quickstart-mmap");
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = Store::create(&dir).unwrap();
//! store.save("bc", &tree).unwrap();
//!
//! // Serving: zero-copy cold start — the tree's arrays are views into the mapping.
//! let engine = Engine::from_store_with(&dir, 0, LoadMode::Mmap).unwrap();
//! let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 5).unwrap();
//! let request = BatchRequest::new(queries, SearchParams::exact(5));
//! let served = engine.serve("bc", &request).unwrap();
//!
//! // Bit-identical to the in-memory build.
//! for (result, query) in served.results.iter().zip(&request.queries) {
//!     let expected = tree.search(query, &SearchParams::exact(5));
//!     assert_eq!(result.neighbors, expected.neighbors);
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! ## Online updates
//!
//! Every index above is immutable once built — the paper's active-learning workload,
//! though, *streams*: label the points nearest the current hyperplane, insert new
//! candidates, re-query. The [`live`] layer closes that loop with an LSM-style tier:
//! a memtable of recent inserts (scanned through the same dispatched kernels) plus a
//! tombstone set, layered over an immutable base snapshot, with every mutation made
//! durable by a CRC-framed, fsync-batched **write-ahead log** before it is
//! acknowledged. Layered answers are **bit-identical** to a full rebuild over the
//! same live points, a background [`LiveIndex::compact`] folds the memtable into a
//! fresh Ball-Tree committed as a new store epoch (serving continues throughout),
//! and `kill -9` at any instant loses no acknowledged write — see
//! `docs/ONLINE_UPDATES.md` for the durability contract and WAL format:
//!
//! ```
//! use p2hnns::engine::{BatchRequest, Engine};
//! use p2hnns::{HyperplaneQuery, LiveIndex, SearchParams, Store};
//!
//! let dir = std::env::temp_dir().join("p2hnns-quickstart-live");
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = Store::create(&dir).unwrap();
//! let engine = Engine::new(0);
//! engine.register_live("stream", LiveIndex::create(&store, "stream", 3).unwrap());
//!
//! // Mutations are durable (WAL-appended and fsynced) when they return.
//! engine.live_insert("stream", &[vec![0.0, 0.0], vec![1.0, 1.0], vec![4.0, 0.5]]).unwrap();
//! engine.live_delete("stream", 1).unwrap();
//!
//! let query = HyperplaneQuery::from_normal_and_bias(&[1.0, 1.0], -1.8).unwrap();
//! let request = BatchRequest::new(vec![query], SearchParams::exact(1));
//! let response = engine.serve_live("stream", &request).unwrap();
//! assert_eq!(response.results[0].neighbors[0].index, 0);
//!
//! // Fold the memtable into a compacted Ball-Tree base (a new store epoch), then
//! // cold-start: the manifest's live entry replays to the identical state.
//! engine.live("stream").unwrap().compact().unwrap();
//! let restarted = Engine::from_store(&dir, 0).unwrap();
//! let again = restarted.serve_live("stream", &request).unwrap();
//! assert_eq!(response.results[0].neighbors, again.results[0].neighbors);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! ## Distributed serving
//!
//! The [`net`] layer takes the sharded fan-out across processes: `shard-server`
//! binaries cold-start shards from a snapshot store and answer query slices over a
//! length-prefixed, checksummed TCP protocol, while a client-side [`Router`] fans
//! batches out over per-shard replica sets with deadlines, deterministic
//! retry/backoff, hedged requests, and optional replica cross-checking. Queries and
//! distances travel as raw bits (no re-normalization on either side), and the
//! router reuses the local deterministic merge — so routed answers stay
//! **bit-identical** to local serving even while replicas are being `kill -9`ed
//! mid-batch, and every failure is a typed [`NetError`], never a silent wrong bit.
//! Degraded (partial) answers are strictly opt-in and always carry the missing-shard
//! list. `Engine::serve_remote` is the batch entry point; a deterministic
//! fault-injection layer (`P2H_FAULTS`, see `docs/NETWORKING.md`) makes the failure
//! handling testable end to end.
//!
//! ## The serving front-end
//!
//! The [`front`] layer puts a production-shaped TCP front door on an engine:
//! concurrent single queries from many connections **coalesce** into engine
//! batches under a tunable `max_batch`/`max_delay` policy (answers stay
//! bit-identical to serving each query alone — batching is pure throughput), a
//! bounded admission queue sheds overload and lapsed deadlines with **typed**
//! errors, a `Reload` request swaps in a freshly cold-started engine with zero
//! dropped requests, and `MetricsRequest` serves the Prometheus registry over the
//! same socket. See `docs/SERVING.md` for the protocol and operations guide:
//!
//! ```
//! use p2hnns::front::{FrontClient, FrontConfig, FrontServer};
//! use p2hnns::engine::{BatchRequest, Engine};
//! use p2hnns::{generate_queries, BcTreeBuilder, DataDistribution, QueryDistribution,
//!              SearchParams, SyntheticDataset};
//!
//! let points = SyntheticDataset::new(
//!     "quickstart-front", 1_500, 12,
//!     DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.5 }, 8,
//! ).generate().unwrap();
//! let engine = std::sync::Arc::new(Engine::new(2));
//! engine.registry().register("bc", BcTreeBuilder::new(64).build(&points).unwrap());
//!
//! // Bind an ephemeral port and serve in background threads.
//! let handle = FrontServer::new(engine.clone(), FrontConfig::default())
//!     .serve("127.0.0.1:0").unwrap();
//!
//! let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 3).unwrap();
//! let mut client = FrontClient::connect(&handle.addr().to_string()).unwrap();
//! let params = SearchParams::exact(5);
//! for query in &queries {
//!     let served = client.query("bc", query, &params, 0).unwrap().unwrap();
//!     // Bit-identical to serving the same query alone, whatever batch it rode in.
//!     let alone = engine
//!         .serve("bc", &BatchRequest::new(vec![query.clone()], params.clone()))
//!         .unwrap();
//!     assert_eq!(served.neighbors, alone.results[0].neighbors);
//! }
//! handle.shutdown();
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (SVM active learning,
//! maximum-margin style selection, index comparison, batch serving, snapshot-backed
//! cold-start serving, sharded serving, distributed fault-tolerant serving) and the
//! `p2h-bench` crate for the
//! reproduction of the paper's evaluation plus the engine throughput-scaling
//! experiment (`engine_throughput`), the snapshot load-vs-rebuild experiment
//! (`snapshot_bench`), and the shard-count sweep (`shard_bench`). Built indexes
//! persist via [`Store`]/[`Snapshot`] (`p2h-store`): save once offline, then
//! [`engine::Engine::from_store`] cold-starts a serving process with bit-identical
//! answers and no rebuild.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use p2h_balltree as balltree;
pub use p2h_core as core;
pub use p2h_data as data;
pub use p2h_engine as engine;
pub use p2h_eval as eval;
pub use p2h_front as front;
pub use p2h_hash as hash;
pub use p2h_live as live;
pub use p2h_net as net;
pub use p2h_obs as obs;
pub use p2h_shard as shard;
pub use p2h_store as store;

pub use p2h_balltree::{BallTree, BallTreeBuilder, BcTree, BcTreeBuilder, BcTreeVariant};
pub use p2h_core::{
    distance, BranchPreference, Error, HyperplaneQuery, LinearScan, Neighbor, P2hIndex, PointSet,
    Result, Scalar, SearchParams, SearchResult, SearchStats, TopKCollector,
};
pub use p2h_core::{BufBacking, VecBuf};
pub use p2h_data::{
    generate_queries, DataDistribution, GroundTruth, QueryDistribution, SyntheticDataset,
};
pub use p2h_engine::{
    BatchExecutor, BatchRequest, BatchResponse, Engine, IndexRegistry, LatencyHistogram,
    ShardedBatchResponse, ShardedExecutor, SharedIndex,
};
pub use p2h_eval::{
    evaluate, evaluate_parallel, sweep_budgets, time_profile, MethodEvaluation, ParallelEvaluation,
    TimeProfile,
};
pub use p2h_front::{FrontClient, FrontConfig, FrontServer};
pub use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};
pub use p2h_live::{
    CompactionPolicy, CompactionReport, CompactionTrigger, Compactor, LiveError, LiveIndex,
    LiveResult,
};
pub use p2h_net::{
    BackoffPolicy, HedgeConfig, NetError, ReplicaSet, RoutedResponse, Router, RouterConfig,
    ShardServer,
};
pub use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndex, ShardedIndexBuilder};
pub use p2h_store::{LoadMode, LoadedIndex, MmapRegion, ShardGroup, Snapshot, Store, StoreError};
