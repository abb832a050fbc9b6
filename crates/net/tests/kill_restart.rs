//! The headline robustness claim: `kill -9` a shard-server process mid-batch and
//! the router retries / fails over to the surviving replica, with every answer
//! staying **bit-identical** (ids + `f32` distance bits) to the local unsharded
//! index — then a restarted server cold-starts from the same store and takes
//! traffic again, and carries it alone once the other replica is killed too.
//!
//! Real OS processes (via `CARGO_BIN_EXE_shard-server`), real SIGKILL — no
//! in-process simulation.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use p2h_core::{
    HyperplaneQuery, LinearScan, P2hIndex, PointSet, QueryScratch, SearchParams, SearchResult,
};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_net::{BackoffPolicy, ReplicaSet, Router, RouterConfig};
use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2h_store::Store;

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

const SHARDS: usize = 3;

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(store_dir: &std::path::Path) -> Self {
        Self::spawn_at(store_dir, "127.0.0.1:0")
    }

    /// Spawns binding `addr` — used to restart a killed replica on its *exact* old
    /// port (`SO_REUSEADDR` on the server listener makes the immediate re-bind
    /// work; no retry-sleep needed).
    fn spawn_at(store_dir: &std::path::Path, addr: &str) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_shard-server"))
            .arg("--store")
            .arg(store_dir)
            .arg("--entry")
            .arg("chaos")
            .arg("--addr")
            .arg(addr)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn shard-server");
        let stdout = child.stdout.take().expect("child stdout");
        let line = std::io::BufReader::new(stdout)
            .lines()
            .next()
            .expect("server banner")
            .expect("read banner");
        let addr = line
            .strip_prefix("READY addr=")
            .and_then(|rest| rest.split_whitespace().next())
            .expect("READY banner")
            .to_string();
        ServerProc { child, addr }
    }

    /// SIGKILL — the process gets no chance to flush, close, or say goodbye.
    fn kill9(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

fn assert_bit_identical(got: &[SearchResult], want: &[SearchResult], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: batch size");
    for (position, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.neighbors.len(),
            w.neighbors.len(),
            "{context}: query {position} neighbor count"
        );
        for (rank, (gn, wn)) in g.neighbors.iter().zip(&w.neighbors).enumerate() {
            assert_eq!(
                (gn.index, gn.distance.to_bits()),
                (wn.index, wn.distance.to_bits()),
                "{context}: query {position} rank {rank}"
            );
        }
    }
}

#[test]
fn kill_dash_nine_mid_batch_keeps_answers_bit_identical() {
    let points: PointSet = SyntheticDataset::new(
        "net-kill-restart",
        500,
        8,
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.0 },
        77,
    )
    .generate()
    .unwrap();
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&points, 8, QueryDistribution::DataDifference, 78).unwrap();
    let params: Vec<SearchParams> = (0..queries.len())
        .map(
            |i| if i % 2 == 0 { SearchParams::exact(10) } else { SearchParams::approximate(5, 64) },
        )
        .collect();

    // The local unsharded oracle.
    let scan = LinearScan::new(points.clone());
    let mut scratch = QueryScratch::new();
    let oracle: Vec<SearchResult> = queries
        .iter()
        .zip(&params)
        .map(|(q, p)| scan.search_with_scratch(q, p, &mut scratch))
        .collect();

    // Persist the sharded build; both replicas (and the restart) cold-start from it.
    let store_dir = TestDir::new("net-kill-restart");
    let store = Store::create(&store_dir).unwrap();
    ShardedIndexBuilder::new(Partitioner::Hash { shards: SHARDS }, ShardIndexKind::LinearScan)
        .with_seed(77)
        .build(&points)
        .unwrap()
        .save_into(&store, "chaos")
        .unwrap();

    let mut replica_a = ServerProc::spawn(&store_dir);
    let mut replica_b = ServerProc::spawn(&store_dir);

    let router_over = |first: &str, second: &str| {
        let replicas: Vec<ReplicaSet> =
            (0..SHARDS).map(|_| ReplicaSet::new([first.to_string(), second.to_string()])).collect();
        let mut config = RouterConfig::new("kill-restart", replicas);
        config.max_retries = 8;
        config.deadline = Duration::from_secs(10);
        config.backoff = BackoffPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(40),
            jitter: Duration::from_millis(1),
            seed: 77,
        };
        Router::new(config).unwrap()
    };
    let router = router_over(&replica_a.addr, &replica_b.addr);

    // Warm up: both replicas healthy, pooled connections to A established.
    for round in 0..3 {
        let routed = router.route(&queries, &params).unwrap();
        assert!(routed.missing_shards.is_empty());
        assert_bit_identical(&routed.results, &oracle, &format!("warmup {round}"));
    }

    // SIGKILL replica A from a side thread while batches are in flight: some
    // routed calls race the kill, hitting dead pooled connections and refused
    // dials, and must fail over to B without a bit of drift.
    let killer = std::thread::spawn({
        let mut victim = std::mem::replace(
            &mut replica_a.child,
            Command::new("sleep").arg("0").stdout(Stdio::null()).spawn().unwrap(),
        );
        move || {
            std::thread::sleep(Duration::from_millis(20));
            victim.kill().ok();
            victim.wait().ok();
        }
    });
    for round in 0..12 {
        let routed = router.route(&queries, &params).unwrap();
        assert!(routed.missing_shards.is_empty(), "failover must be complete, not partial");
        assert_bit_identical(&routed.results, &oracle, &format!("kill race {round}"));
    }
    killer.join().unwrap();

    // Restart: a fresh process cold-starts the same entry from the store on the
    // killed replica's *exact* old port (SO_REUSEADDR makes the immediate re-bind
    // stick — no retry-sleep), so the ORIGINAL router, which still lists that
    // address first, starts exercising the restarted process without being rebuilt.
    let replica_a2 = ServerProc::spawn_at(&store_dir, &replica_a.addr);
    assert_eq!(replica_a2.addr, replica_a.addr, "restart must reclaim the same port");
    for round in 0..3 {
        let routed = router.route(&queries, &params).unwrap();
        assert_bit_identical(&routed.results, &oracle, &format!("restarted {round}"));
    }

    // Now SIGKILL B and route through a router that lists the dead replica FIRST:
    // every shard's first attempt is refused and must fail over to the restarted A,
    // without a bit of drift.
    replica_b.kill9();
    let dead_first = router_over(&replica_b.addr, &replica_a2.addr);
    for round in 0..5 {
        let routed = dead_first.route(&queries, &params).unwrap();
        assert!(routed.missing_shards.is_empty(), "failover must be complete, not partial");
        assert_bit_identical(&routed.results, &oracle, &format!("B dead, listed first {round}"));
    }

    drop(dead_first);
    drop(router);
    drop(replica_a2);
    drop(replica_b);
    drop(replica_a);
}
