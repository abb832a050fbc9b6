//! Engine integration for the live tier: registration, mutate-and-serve through
//! `Engine::live_insert`/`live_delete`/`serve_live`, the same up-front validation as
//! `Engine::serve`, and cold start — a store directory holding a live entry loads
//! through `Engine::from_store` and answers bit-identically to the pre-restart
//! engine — and one live state per batch while a writer mutates concurrently.

use std::sync::atomic::{AtomicBool, Ordering};

use p2h_core::{Error, HyperplaneQuery, SearchParams};
use p2h_engine::{BatchRequest, BatchResponse, Engine, LiveIndex, Store};

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

fn answer_bits(response: &BatchResponse) -> Vec<Vec<(usize, u32)>> {
    response
        .results
        .iter()
        .map(|r| r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect())
        .collect()
}

#[test]
fn live_mutate_serve_and_cold_start() {
    let dir = TestDir::new("engine-live-roundtrip");
    let store = Store::create(&*dir).unwrap();
    let live = LiveIndex::create(&store, "stream", 3).unwrap();

    let engine = Engine::new(2);
    engine.register_live("stream", live);
    assert_eq!(engine.registry().names(), vec!["stream".to_string()]);
    assert_eq!(engine.registry().len(), 1);

    let ids =
        engine.live_insert("stream", &[vec![0.0, 0.0], vec![1.0, 1.0], vec![4.0, 0.5]]).unwrap();
    assert_eq!(ids, vec![0, 1, 2]);
    engine.live_delete("stream", 1).unwrap();

    let queries = vec![
        HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -3.0).unwrap(),
        HyperplaneQuery::from_normal_and_bias(&[0.5, -1.0], 0.2).unwrap(),
    ];
    let request = BatchRequest::new(queries.clone(), SearchParams::exact(2));
    let response = engine.serve_live("stream", &request).unwrap();
    assert_eq!(response.results.len(), 2);
    assert_eq!(response.results[0].neighbors[0].index, 2);
    assert!(response.results.iter().all(|r| r.neighbors.iter().all(|n| n.index != 1)));
    assert_eq!(response.latencies_ns.len(), 2);

    // Live names answer only the live path; unknown names and bad requests are
    // typed errors exactly like `Engine::serve`.
    assert!(matches!(
        engine.serve("stream", &request),
        Err(Error::InvalidParameter { name: "index_name", .. })
    ));
    assert!(matches!(
        engine.serve_live("missing", &request),
        Err(Error::InvalidParameter { name: "index_name", .. })
    ));
    let wrong_dim = BatchRequest::new(
        vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap()],
        SearchParams::exact(1),
    );
    assert!(matches!(
        engine.serve_live("stream", &wrong_dim),
        Err(Error::DimensionMismatch { expected: 3, actual: 4 })
    ));
    assert!(engine.live_insert("missing", &[vec![0.0, 0.0]]).is_err());

    // Compact (new store epoch), then cold-start a second engine from the same
    // directory: the manifest's live entry replays and answers are bit-identical.
    engine.live("stream").unwrap().compact().unwrap();
    let after_compact = engine.serve_live("stream", &request).unwrap();
    assert_eq!(answer_bits(&response), answer_bits(&after_compact));

    let cold = Engine::from_store(&*dir, 1).unwrap();
    assert_eq!(cold.registry().names(), vec!["stream".to_string()]);
    let cold_response = cold.serve_live("stream", &request).unwrap();
    assert_eq!(answer_bits(&response), answer_bits(&cold_response));

    // The cold-started handle is mutable too — the tier stays live across restarts.
    assert_eq!(cold.live_insert("stream", &[vec![-2.0, 3.0]]).unwrap(), vec![3]);
}

#[test]
fn every_query_of_a_batch_sees_one_live_state() {
    let dir = TestDir::new("engine-live-one-state");
    let live = LiveIndex::create(&Store::create(&*dir).unwrap(), "stream", 3).unwrap();
    let point = |i: u32| vec![(i % 37) as f32 * 0.25 - 4.0, (i % 11) as f32 * 0.5 - 2.5];
    live.insert_batch(&(0..400).map(point).collect::<Vec<_>>()).unwrap();
    live.compact().unwrap();
    let engine = Engine::new(2);
    let live = engine.register_live("stream", live);

    let query = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.3], -0.1).unwrap();
    // Grouped (exact) and one by one (timed queries are never grouped): both must see
    // a single state.
    let requests = [SearchParams::exact(3), SearchParams::exact(3).with_timing()]
        .map(|params| BatchRequest::new(vec![query.clone(); 8], params));
    let done = AtomicBool::new(false);
    let batches = std::thread::scope(|scope| {
        scope.spawn(|| {
            // Retire the current top-1 and admit an arrival near the hyperplane, the
            // active-learning loop, so every mutation changes the answer.
            for i in 0..300u32 {
                let top = live.search_exact(&query, 1).unwrap().neighbors[0].index as u32;
                live.delete(top).unwrap();
                live.insert(&[0.1 + (i % 7) as f32 * 0.01, (i % 5) as f32 * 0.02]).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let mut batches = 0usize;
        while !done.load(Ordering::Acquire) {
            let response = engine.serve_live("stream", &requests[batches % 2]).unwrap();
            let answers = answer_bits(&response);
            assert_eq!(answers.len(), 8);
            assert!(answers.iter().all(|a| a == &answers[0]), "batch {batches}: {answers:?}");
            batches += 1;
        }
        batches
    });
    assert!(batches > 0);
}
