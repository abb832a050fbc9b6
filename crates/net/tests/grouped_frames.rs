//! A shard server answers a `ShardQuery` frame as a group: runs of exact queries share
//! one descent of the shard's tree. What comes back must still be, bit for bit, what
//! each query gets from `search_shard` alone — and, merged across shards, what the
//! unsharded linear scan finds — for frames that mix exact and budgeted queries and
//! per-query `k`, over tree shards cold-started by either loader.

use std::time::Duration;

use p2h_core::{
    merge_topk, HyperplaneQuery, LinearScan, Neighbor, P2hIndex, PointSet, QueryScratch,
    SearchParams,
};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_net::{BackoffPolicy, ReplicaSet, Router, RouterConfig, ShardServer};
use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2h_store::{LoadMode, Store};

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

const SHARDS: usize = 2;

fn bits(neighbors: &[Neighbor]) -> Vec<(usize, u32)> {
    neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Frames wider than one group, so runs are split, interrupted and resumed.
fn frames(queries: usize) -> Vec<Vec<SearchParams>> {
    let mixed = |i: usize| match i % 5 {
        0 | 1 => SearchParams::exact(10),
        2 => SearchParams::approximate(5, 300),
        3 => SearchParams::exact(3),
        // A budget of one point: every shard but the owner of global id 0 skips it.
        _ => SearchParams::approximate(1, 1),
    };
    vec![
        vec![SearchParams::exact(10); queries],
        (0..queries).map(mixed).collect(),
        (0..queries).map(|i| SearchParams::exact(1 + i % 4)).collect(),
        vec![SearchParams::approximate(10, 500); queries],
    ]
}

fn check(points: &PointSet, queries: &[HyperplaneQuery], kind: ShardIndexKind, mode: LoadMode) {
    let context = format!("{kind:?} / {mode:?}");
    let dir = TestDir::new("net-grouped-frames");
    let store = Store::create(&*dir).unwrap().with_mode(mode);
    ShardedIndexBuilder::new(Partitioner::Hash { shards: SHARDS }, kind)
        .with_seed(5)
        .build(points)
        .unwrap()
        .save_into(&store, "frames")
        .unwrap();
    let server = ShardServer::load(&store, "frames").unwrap();
    let index = server.index().clone();
    let handle = server.serve("127.0.0.1:0").unwrap();
    let replicas = (0..SHARDS).map(|_| ReplicaSet::new([handle.addr().to_string()])).collect();
    let mut config = RouterConfig::new("grouped-frames", replicas);
    config.deadline = Duration::from_secs(10);
    config.backoff = BackoffPolicy::immediate(1);
    let router = Router::new(config).unwrap();

    let scan = LinearScan::new(points.clone());
    let mut scratch = QueryScratch::new();
    for (f, params) in frames(queries.len()).iter().enumerate() {
        // Per shard: the grouped frame against each query alone.
        let refs: Vec<&SearchParams> = params.iter().collect();
        let mut alone = vec![Vec::new(); queries.len()];
        for shard in 0..SHARDS {
            let grouped = index.search_shard_group(shard, queries, &refs, &mut scratch);
            assert_eq!(grouped.len(), queries.len(), "{context}: frame {f} shard {shard}");
            for (i, (query, params)) in queries.iter().zip(params).enumerate() {
                let single = index.search_shard(shard, query, params, &mut scratch);
                assert_eq!(
                    grouped[i].as_ref().map(|r| bits(&r.neighbors)),
                    single.as_ref().map(|r| bits(&r.neighbors)),
                    "{context}: frame {f} shard {shard} query {i}"
                );
                alone[i].extend(single.map(|r| r.neighbors));
            }
        }

        // Over the wire: the same answers merged, and the oracle for exact queries.
        let routed = router.route(queries, params).unwrap();
        assert!(routed.missing_shards.is_empty(), "{context}: frame {f}");
        for (i, (lists, params)) in alone.into_iter().zip(params).enumerate() {
            let got = bits(&routed.results[i].neighbors);
            assert_eq!(got, bits(&merge_topk(params.k, lists)), "{context}: frame {f} query {i}");
            if params.candidate_limit.is_none() {
                let exact = scan.search_with_scratch(&queries[i], params, &mut scratch);
                assert_eq!(got, bits(&exact.neighbors), "{context}: frame {f} query {i} oracle");
            }
        }
    }
    handle.shutdown();
}

#[test]
fn grouped_frames_match_single_searches_and_the_oracle() {
    let points = SyntheticDataset::new(
        "net-grouped-frames",
        3_000,
        12,
        DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.2 },
        41,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 11, QueryDistribution::DataDifference, 43).unwrap();
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        for kind in
            [ShardIndexKind::BcTree { leaf_size: 70 }, ShardIndexKind::BallTree { leaf_size: 70 }]
        {
            check(&points, &queries, kind, mode);
        }
    }
}
