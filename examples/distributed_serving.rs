//! Distributed fault-tolerant serving end to end: snapshot a sharded index, serve it
//! from two in-process replica servers over real TCP sockets, route batches through
//! the replicated router (retries + hedging), inject deterministic faults into the
//! client's receive path — and verify every answer stays bit-identical to serving the
//! same index locally.
//!
//! ```text
//! cargo run --release --example distributed_serving
//! ```

use std::time::Duration;

use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::obs::fault;
use p2hnns::shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2hnns::{
    generate_queries, BackoffPolicy, DataDistribution, HedgeConfig, QueryDistribution, ReplicaSet,
    Router, RouterConfig, SearchParams, ShardServer, Store, SyntheticDataset,
};

const SHARDS: usize = 3;

fn main() {
    // A synthetic workload: 20k points in 16 dimensions, 32 hyperplane queries.
    let points = SyntheticDataset::new(
        "distributed-serving",
        20_000,
        16,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        11,
    )
    .generate()
    .expect("synthetic data");
    let queries =
        generate_queries(&points, 32, QueryDistribution::DataDifference, 12).expect("queries");
    let request = BatchRequest::new(queries, SearchParams::exact(10))
        .with_override(0, SearchParams::approximate(10, 400));

    // Offline: build the sharded index once and snapshot it. Replicas are just
    // processes serving the same immutable snapshot — they agree by construction.
    let dir = std::env::temp_dir().join(format!("p2h-distributed-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    ShardedIndexBuilder::new(
        Partitioner::Hash { shards: SHARDS },
        ShardIndexKind::BcTree { leaf_size: 100 },
    )
    .with_seed(1)
    .build(&points)
    .expect("sharded build")
    .save_into(&store, "p2h")
    .expect("snapshot");

    // Two replica servers cold-start from the store and bind ephemeral ports. In a
    // real deployment these are separate `shard-server` processes on separate hosts;
    // in-process handles keep the example self-contained (the kill -9 variant lives
    // in `crates/net/tests/kill_restart.rs`).
    let replica_a =
        ShardServer::load(&store, "p2h").expect("load").serve("127.0.0.1:0").expect("serve");
    let replica_b =
        ShardServer::load(&store, "p2h").expect("load").serve("127.0.0.1:0").expect("serve");
    println!("replicas listening on {} and {}", replica_a.addr(), replica_b.addr());

    // Every shard can be answered by either replica. Hedging races a second replica
    // whenever an attempt exceeds the shard's observed p99 (floored at 20ms).
    let replicas: Vec<ReplicaSet> = (0..SHARDS)
        .map(|_| ReplicaSet::new([replica_a.addr().to_string(), replica_b.addr().to_string()]))
        .collect();
    let mut config = RouterConfig::new("p2h", replicas);
    config.max_retries = 12;
    config.deadline = Duration::from_secs(10);
    config.backoff = BackoffPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        jitter: Duration::from_millis(1),
        seed: 11,
    };
    config.hedge = Some(HedgeConfig { floor: Duration::from_millis(20) });
    let router = Router::new(config).expect("router");

    // The local oracle: the same snapshot served in-process.
    let engine = Engine::from_store(&dir, 0).expect("cold start");
    let local = engine.serve("p2h", &request).expect("local serve");

    // Route the batch over TCP. Same request API, bit-identical answers.
    let remote = engine.serve_remote("p2h", &router, &request).expect("routed serve");
    assert!(remote.is_complete());
    assert_bit_identical(&local.results, &remote.batch.results, "healthy");
    println!(
        "routed {} queries in {:.2}ms — bit-identical to local serving",
        remote.batch.results.len(),
        remote.batch.wall_time_ns as f64 / 1.0e6
    );

    // Chaos: deterministically drop 30% of the client's receive calls. The system's
    // contract under faults is binary — a round either survives its retries with
    // answers that do not move a bit, or fails with a *typed* error. Never a panic,
    // never a hang, never silently wrong bits.
    fault::set_spec("client.recv:disconnect:0.3:7").expect("fault spec");
    let mut survived = 0usize;
    for round in 0..8 {
        match engine.serve_remote("p2h", &router, &request) {
            Ok(routed) => {
                assert!(routed.is_complete());
                assert_bit_identical(&local.results, &routed.batch.results, "chaos round");
                survived += 1;
            }
            Err(err) => {
                assert!(err.is_retryable(), "only transport errors may surface: {err}");
                println!("round {round}: retries exhausted with a typed error: {err}");
            }
        }
    }
    fault::set_rules(Vec::new());
    assert!(survived > 0, "every chaos round failed — retry budget far too small");

    // Tail latency: make half the server replies 60ms slow. The router's hedge
    // policy (delay = max(20ms floor, observed p99)) races the other replica and
    // takes whichever answers first — same snapshot, same bits, lower tail.
    fault::set_spec("server.send:slow(60):0.5:3").expect("fault spec");
    for _ in 0..3 {
        let routed = engine.serve_remote("p2h", &router, &request).expect("hedged serve");
        assert!(routed.is_complete());
        assert_bit_identical(&local.results, &routed.batch.results, "hedged round");
    }
    fault::set_rules(Vec::new());

    // The metrics registry is the chaos run's ground truth.
    let snapshot = p2hnns::obs::global().snapshot();
    for family in ["p2h_faults_injected_total", "p2h_net_retries_total", "p2h_net_hedges_total"] {
        let total: u64 = snapshot
            .families
            .iter()
            .filter(|f| f.name == family)
            .flat_map(|f| &f.series)
            .map(|s| s.value.scalar())
            .sum();
        println!("{family} = {total}");
    }
    println!(
        "{survived}/8 chaos rounds served bit-identically under 30% receive-path disconnects \
         (the rest failed with typed errors)"
    );

    drop(router);
    replica_a.shutdown();
    replica_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_bit_identical(
    local: &[p2hnns::SearchResult],
    routed: &[p2hnns::SearchResult],
    context: &str,
) {
    assert_eq!(local.len(), routed.len(), "{context}: batch size");
    for (position, (l, r)) in local.iter().zip(routed).enumerate() {
        assert_eq!(l.neighbors.len(), r.neighbors.len(), "{context}: query {position}");
        for (rank, (ln, rn)) in l.neighbors.iter().zip(&r.neighbors).enumerate() {
            assert_eq!(
                (ln.index, ln.distance.to_bits()),
                (rn.index, rn.distance.to_bits()),
                "{context}: query {position} rank {rank}"
            );
        }
    }
}
