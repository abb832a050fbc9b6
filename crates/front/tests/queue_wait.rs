//! `p2h_front_queue_wait_ns` measures the wait *before* dispatch, not wait + service.
//!
//! One test in its own binary: the histogram lives in the process-wide registry, so
//! nothing else may record into it while this test reads it.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{synthetic_queries, synthetic_rows};
use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex, PointSet, SearchParams, SearchResult};
use p2h_engine::Engine;
use p2h_front::{FrontClient, FrontConfig, FrontServer};

/// How long the slow index takes to answer.
const SERVICE: Duration = Duration::from_millis(240);

/// A linear scan that sleeps before it answers.
struct SlowIndex(LinearScan);

impl P2hIndex for SlowIndex {
    fn name(&self) -> &'static str {
        "Slow"
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.0.index_size_bytes()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        std::thread::sleep(SERVICE);
        self.0.search(query, params)
    }
}

#[test]
fn an_unqueued_request_records_its_wait_not_its_service_time() {
    let points = PointSet::augment(&synthetic_rows(50, 0x0A17)).expect("non-empty rows");
    let engine = Engine::new(1);
    engine.registry().register("slow", SlowIndex(LinearScan::new(points)));
    // A batch of one dispatches the moment it is admitted: nothing to wait for.
    let config = FrontConfig {
        loops: 1,
        max_batch: 1,
        max_delay: Duration::ZERO,
        queue_depth: 8,
        threads: 1,
    };
    let handle = FrontServer::new(Arc::new(engine), config).serve("127.0.0.1:0").expect("serve");
    let mut client = FrontClient::connect(&handle.addr().to_string()).expect("connect");
    let (query, params) = &synthetic_queries(1, 0x0A17)[0];
    client.query("slow", query, params, 0).expect("transport ok").expect("served");
    handle.shutdown();

    let snapshot = p2h_obs::global().snapshot();
    let waits = snapshot
        .series("p2h_front_queue_wait_ns", &[])
        .and_then(|series| series.value.histogram())
        .expect("the front-end published its queue-wait histogram");
    assert_eq!(waits.count(), 1, "one request, one recorded wait");
    let wait = Duration::from_nanos(waits.max_value());
    assert!(
        wait < SERVICE / 4,
        "an un-queued request waited {wait:?} by the histogram; its service alone took {SERVICE:?}"
    );
}
