//! Concurrency smoke tests: one shared engine serving many client threads at once,
//! with registration and removal interleaved mid-flight.

use std::sync::Arc;

use p2h_core::{LinearScan, P2hIndex as _, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BatchRequest, BcTreeBuilder, Engine};

#[test]
fn many_client_threads_share_one_index() {
    let points = SyntheticDataset::new(
        "engine-concurrency",
        3_000,
        12,
        DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.2 },
        23,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 16, QueryDistribution::DataDifference, 3).unwrap();
    let scan = LinearScan::new(points.clone());

    let engine = Arc::new(Engine::new(2));
    engine.registry().register("bc", BcTreeBuilder::new(64).build(&points).unwrap());

    let request = Arc::new(BatchRequest::new(queries.clone(), SearchParams::exact(5)));
    let clients = 8;
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let request = Arc::clone(&request);
                scope.spawn(move || engine.serve("bc", &request).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    // Every client sees the same (exact) answers.
    assert_eq!(responses.len(), clients);
    for response in &responses {
        assert_eq!(response.results.len(), queries.len());
        for (result, query) in response.results.iter().zip(queries.iter()) {
            let exact = scan.search_exact(query, 5);
            assert_eq!(result.neighbors, exact.neighbors);
        }
    }
}

#[test]
fn removal_mid_flight_does_not_invalidate_served_handles() {
    let points = SyntheticDataset::new(
        "engine-remove",
        1_000,
        8,
        DataDistribution::Uniform { scale: 3.0 },
        5,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 8, QueryDistribution::RandomNormal, 11).unwrap();

    let engine = Arc::new(Engine::new(2));
    engine.registry().register("victim", LinearScan::new(points));
    // A client grabs the handle, the registry entry disappears, the handle keeps working.
    let handle = engine.registry().get("victim").unwrap();
    assert!(engine.registry().remove("victim").is_some());
    assert!(engine.registry().get("victim").is_none());

    // The surviving handle serves again once registered under another name.
    let request = BatchRequest::new(queries, SearchParams::exact(3));
    engine.registry().register_shared("survivor", handle);
    let response = engine.serve("survivor", &request).unwrap();
    assert_eq!(response.results.len(), 8);

    // Serving by the removed name is a clean error.
    assert!(engine.serve("victim", &request).is_err());
}
