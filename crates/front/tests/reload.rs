//! Zero-downtime reload: a `Reload` request cold-starts a fresh engine from the
//! snapshot store and swaps it in **under live traffic** — zero failed requests,
//! every answer bit-identical, before, during, and after the swap — and the traffic
//! around it really coalesces: the front's metrics count more requests than batches.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use common::{assert_bits, synthetic_queries, synthetic_rows, TestDir};
use p2h_core::{LinearScan, P2hIndex, PointSet, QueryScratch};
use p2h_engine::Engine;
use p2h_front::{FrontClient, FrontConfig, FrontServer};
use p2h_net::{ErrorCode, NetError};
use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2h_store::Store;

#[test]
fn reload_under_live_traffic_fails_nothing_and_drifts_no_bit() {
    let seed = 0x51AB;
    let rows = synthetic_rows(300, seed);
    let points = PointSet::augment(&rows).expect("rows");
    let queries = synthetic_queries(10, seed);

    let store_dir = TestDir::new("front-reload");
    let store = Store::create(&store_dir).expect("create store");
    ShardedIndexBuilder::new(Partitioner::Hash { shards: 3 }, ShardIndexKind::LinearScan)
        .with_seed(seed)
        .build(&points)
        .expect("build")
        .save_into(&store, "main")
        .expect("save");

    // The oracle is a plain local scan — the store snapshot holds linear-scan
    // shards, which are bit-identical to it by the shard crate's own contract.
    let scan = LinearScan::new(points.clone());
    let mut scratch = QueryScratch::new();
    let oracle: Vec<_> =
        queries.iter().map(|(q, p)| scan.search_with_scratch(q, p, &mut scratch)).collect();

    let handle = FrontServer::from_store(store_dir.to_path_buf(), FrontConfig::default())
        .expect("cold start")
        .serve("127.0.0.1:0")
        .expect("serve");
    let addr = handle.addr().to_string();
    let mut admin = FrontClient::connect(&addr).expect("connect admin");
    // One pipelined wave from the admin connection, checked bit for bit.
    let wave = |admin: &mut FrontClient, context: &str| {
        let outcomes = admin.query_many("main", &queries, 0).expect("transport");
        for (position, outcome) in outcomes.into_iter().enumerate() {
            let got = outcome.unwrap_or_else(|(code, message)| {
                panic!("{context} q{position} failed: {code}: {message}")
            });
            assert_bits(&got, &oracle[position], &format!("{context} q{position}"));
        }
    };
    let before = admin.metrics().expect("metrics before traffic");
    wave(&mut admin, "before the first reload");

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Four traffic threads hammer the front while the main thread reloads.
        // Any transport error, typed error, or bit of drift panics the worker.
        for worker in 0..4usize {
            let (addr, queries, oracle, stop, served) = (&addr, &queries, &oracle, &stop, &served);
            scope.spawn(move || {
                let mut client = FrontClient::connect(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    let outcomes = client.query_many("main", queries, 0).expect("transport");
                    for (position, outcome) in outcomes.into_iter().enumerate() {
                        let got = outcome.unwrap_or_else(|(code, message)| {
                            panic!(
                                "worker {worker} q{position} failed mid-reload: {code}: {message}"
                            )
                        });
                        assert_bits(
                            &got,
                            &oracle[position],
                            &format!("worker {worker} q{position}"),
                        );
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        for round in 0..3 {
            std::thread::sleep(Duration::from_millis(40));
            let entries = admin.reload().unwrap_or_else(|e| panic!("reload {round}: {e}"));
            assert_eq!(entries, 1, "the fresh engine registered the snapshot entry");
        }
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Relaxed);
    });

    wave(&mut admin, "after the last reload");

    assert!(
        served.load(Ordering::Relaxed) > 0,
        "the traffic threads actually exercised the swap window"
    );
    // Every request above has been answered, so its batch is counted: pipelined
    // waves from concurrent connections must have shared batches.
    let after = admin.metrics().expect("metrics after traffic");
    let delta = |family| counter(&after, family) - counter(&before, family);
    let (requests, batches) = (delta("p2h_front_requests_total"), delta("p2h_front_batches_total"));
    assert!(
        batches > 0 && batches < requests,
        "coalescing ineffective: {requests} requests dispatched as {batches} batches"
    );
    // The handle observes the swapped engine, not the boot-time one.
    assert_eq!(handle.engine().registry().len(), 1);
    handle.shutdown();
}

#[test]
fn reload_without_a_store_is_a_typed_error() {
    let engine = std::sync::Arc::new(Engine::new(1));
    let handle =
        FrontServer::new(engine, FrontConfig::default()).serve("127.0.0.1:0").expect("serve");
    let mut client = FrontClient::connect(&handle.addr().to_string()).expect("connect");
    match client.reload() {
        Err(NetError::Remote { code: ErrorCode::BadRequest, .. }) => {}
        other => panic!("expected a typed BadRequest, got {other:?}"),
    }
    handle.shutdown();
}

/// The value of an unlabeled counter in Prometheus text exposition (0 when absent).
fn counter(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter_map(|line| line.strip_prefix(family)?.strip_prefix(' ')?.trim().parse::<u64>().ok())
        .sum()
}
