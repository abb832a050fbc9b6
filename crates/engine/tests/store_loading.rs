//! Cold-start serving from a snapshot store: `IndexRegistry::open_dir` /
//! `Engine::from_store` must reproduce the answers of the process that built and
//! saved the indexes, bit for bit.

use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex, PointSet, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{
    BallTreeBuilder, BatchRequest, BcTreeBuilder, Engine, IndexRegistry, Partitioner,
    ShardIndexKind, ShardedIndexBuilder, Store, StoreError,
};

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

fn dataset(n: usize, dim: usize) -> PointSet {
    SyntheticDataset::new(
        "engine-store",
        n,
        dim,
        DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.3 },
        71,
    )
    .generate()
    .unwrap()
}

#[test]
fn engine_cold_starts_from_a_store_with_identical_answers() {
    let dir = TestDir::new("engine-cold-start");
    let ps = dataset(6_000, 12);
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&ps, 48, QueryDistribution::DataDifference, 5).unwrap();
    let request = BatchRequest::new(queries, SearchParams::exact(10))
        .with_override(0, SearchParams::approximate(10, 400));

    // "Offline" process: build (in parallel), serve once for reference, snapshot.
    let ball = BallTreeBuilder::new(64).with_seed(3).build_parallel(&ps, 4).unwrap();
    let bc = BcTreeBuilder::new(64).with_seed(3).build_parallel(&ps, 4).unwrap();
    let offline = Engine::new(2);
    offline.registry().register("ball", ball.clone());
    offline.registry().register("bc", bc.clone());
    offline.registry().register("scan", LinearScan::new(ps.clone()));
    let reference: Vec<_> = offline
        .registry()
        .names()
        .iter()
        .map(|name| offline.serve(name, &request).unwrap())
        .collect();

    let store = Store::create(&dir).unwrap();
    store.save("ball", &ball).unwrap();
    store.save("bc", &bc).unwrap();
    store.save("scan", &LinearScan::new(ps.clone())).unwrap();

    // "Serving" process: cold-start purely from the directory.
    let engine = Engine::from_store(&dir, 2).unwrap();
    assert_eq!(engine.registry().names(), vec!["ball", "bc", "scan"]);
    for (name, expected) in engine.registry().names().iter().zip(&reference) {
        let served = engine.serve(name, &request).unwrap();
        assert_eq!(served.results.len(), expected.results.len());
        for (a, b) in served.results.iter().zip(&expected.results) {
            assert_eq!(a.neighbors, b.neighbors, "index {name}");
        }
    }
}

#[test]
fn engine_cold_starts_a_sharded_index_from_a_shard_group() {
    let ps = dataset(5_000, 10);
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&ps, 32, QueryDistribution::DataDifference, 8).unwrap();
    let request = BatchRequest::new(queries.clone(), SearchParams::exact(10))
        .with_override(1, SearchParams::approximate(10, 500));
    // Every exact position must also match the unsharded linear scan.
    let scan = LinearScan::new(ps.clone());
    let unsharded: Vec<_> =
        queries.iter().enumerate().map(|(i, q)| scan.search(q, request.params_for(i))).collect();

    for shards in [1, 2, 3, 4, 5, 8] {
        let dir = TestDir::new("engine-sharded-cold-start");
        // "Offline" process: build the sharded index, serve once through each path
        // for reference, snapshot it as a shard group next to a plain index.
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Hash { shards },
            ShardIndexKind::BcTree { leaf_size: 64 },
        )
        .with_seed(7)
        .build(&ps)
        .unwrap();
        let offline = Engine::new(2);
        offline.registry().register_sharded("sharded", sharded);
        let reference = offline.serve("sharded", &request).unwrap();
        let offline_shard_parallel = offline.serve_sharded("sharded", &request).unwrap();
        for (i, (a, b)) in reference.results.iter().zip(&offline_shard_parallel.results).enumerate()
        {
            assert_eq!(a.neighbors, b.neighbors, "shards={shards} q{i}: the two serving paths");
            if request.params_for(i).candidate_limit.is_none() {
                assert_eq!(a.neighbors, unsharded[i].neighbors, "shards={shards} q{i}: unsharded");
            }
        }

        let store = Store::create(&dir).unwrap();
        offline.registry().get_sharded("sharded").unwrap().save_into(&store, "sharded").unwrap();
        store.save("scan", &scan).unwrap();

        // "Serving" process: cold-start purely from the directory; both serving paths
        // (query-parallel trait path and shard-parallel executor) must answer
        // bit-identically to the offline process.
        let engine = Engine::from_store(&dir, 3).unwrap();
        assert_eq!(engine.registry().names(), vec!["scan", "sharded"]);
        assert_eq!(engine.registry().get_sharded("sharded").unwrap().shard_count(), shards);

        let served = engine.serve("sharded", &request).unwrap();
        let shard_parallel = engine.serve_sharded("sharded", &request).unwrap();
        assert_eq!(served.results.len(), reference.results.len());
        for ((a, b), c) in
            served.results.iter().zip(&reference.results).zip(&shard_parallel.results)
        {
            assert_eq!(a.neighbors, b.neighbors, "shards={shards}");
            assert_eq!(a.neighbors, c.neighbors, "shards={shards}");
        }
        // Per-shard telemetry is present for every shard.
        assert_eq!(shard_parallel.per_shard_latency.len(), shards);
        assert!(shard_parallel.per_shard_stats.iter().all(|s| s.candidates_verified > 0));

        // The plain index is not reachable through the sharded serving path.
        assert!(engine.serve_sharded("scan", &request).is_err());
    }
}

#[test]
fn open_dir_surfaces_store_errors() {
    let dir = TestDir::new("engine-store-errors");
    assert!(matches!(IndexRegistry::open_dir(dir.join("missing")), Err(StoreError::Io { .. })));

    // A manifest entry whose snapshot file is corrupt: loading is all-or-nothing.
    let store = Store::create(&dir).unwrap();
    let ps = dataset(500, 6);
    let path = store.save("scan", &LinearScan::new(ps)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(IndexRegistry::open_dir(&dir), Err(StoreError::ChecksumMismatch { .. })));
    assert!(Engine::from_store(&dir, 1).is_err());
}

#[test]
fn mmap_cold_start_serves_bit_identically_to_copy() {
    use p2h_store::LoadMode;
    let dir = TestDir::new("engine-mmap-cold-start");
    let ps = dataset(3_000, 10);
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&ps, 24, QueryDistribution::DataDifference, 11).unwrap();
    let request = BatchRequest::new(queries, SearchParams::exact(10));

    let store = Store::create(&dir).unwrap();
    store.save("ball", &BallTreeBuilder::new(48).with_seed(7).build(&ps).unwrap()).unwrap();
    store.save("bc", &BcTreeBuilder::new(48).with_seed(7).build(&ps).unwrap()).unwrap();
    store.save("scan", &LinearScan::new(ps.clone())).unwrap();
    ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 3 },
        ShardIndexKind::BcTree { leaf_size: 48 },
    )
    .with_seed(7)
    .build(&ps)
    .unwrap()
    .save_into(&store, "sharded")
    .unwrap();

    // The same store cold-started under both loaders: every served batch (including
    // the shard-parallel path) is bit-identical.
    let copy = Engine::from_store_with(&dir, 2, LoadMode::Copy).unwrap();
    let mmap = Engine::from_store_with(&dir, 2, LoadMode::Mmap).unwrap();
    assert_eq!(copy.registry().names(), mmap.registry().names());
    for name in copy.registry().names() {
        let a = copy.serve(&name, &request).unwrap();
        let b = mmap.serve(&name, &request).unwrap();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.neighbors.len(), y.neighbors.len(), "index {name}");
            for (m, n) in x.neighbors.iter().zip(&y.neighbors) {
                assert_eq!(m.index, n.index, "index {name}");
                assert_eq!(m.distance.to_bits(), n.distance.to_bits(), "index {name}");
            }
        }
    }
    let a = copy.serve_sharded("sharded", &request).unwrap();
    let b = mmap.serve_sharded("sharded", &request).unwrap();
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.neighbors, y.neighbors);
    }
}
