//! Sharded, observable serving end to end: partition a point set across four BC-Trees,
//! snapshot them as a shard group, cold-start an engine from disk, serve a batch
//! through both serving paths — bit-identical to the in-memory build and to the
//! unsharded linear-scan oracle — and print the live metrics registry: per-index
//! latency histograms, per-shard p99, `SearchStats` counters, and the store's
//! cold-start stage split (read vs. CRC vs. decode) in Prometheus text exposition
//! format.
//!
//! Set `P2H_TRACE=/tmp/p2h-trace.jsonl:10` before running to additionally stream a
//! JSON-lines record (with per-stage timings) for every 10th query.
//!
//! ```text
//! cargo run --release --example metrics_serving
//! ```

use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2hnns::{
    generate_queries, DataDistribution, LinearScan, P2hIndex, QueryDistribution, SearchParams,
    Store, SyntheticDataset,
};

fn main() {
    // Offline: build a sharded BC-Tree index (hash-scattered across 4 shards) and
    // snapshot it as a shard group (an atomic multi-file commit).
    let points = SyntheticDataset::new(
        "metrics-serving",
        40_000,
        24,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        17,
    )
    .generate()
    .expect("synthetic data");
    let sharded = ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 4 },
        ShardIndexKind::BcTree { leaf_size: 100 },
    )
    .with_seed(1)
    .build(&points)
    .expect("sharded build");
    println!(
        "built {} shards over {} points ({} KiB of index structure)",
        sharded.shard_count(),
        sharded.len(),
        sharded.index_size_bytes() / 1024
    );

    let dir = std::env::temp_dir().join(format!("p2h-metrics-serving-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    sharded.save_into(&store, "p2h").expect("snapshot shard group");

    // Serving: cold-start from the snapshot directory (this populates the
    // `p2h_store_load_stage_ns_total` read/CRC/decode split and the engine's
    // cold-start counters), then serve one batch through each path: query-parallel
    // (`serve`) and fanned across the shards (`serve_sharded`).
    let engine = Engine::from_store(&dir, 0).expect("cold start");
    let queries =
        generate_queries(&points, 128, QueryDistribution::DataDifference, 3).expect("queries");
    let request = BatchRequest::new(queries, SearchParams::exact(10));

    let batch = engine.serve("p2h", &request).expect("batch serve");
    let fanout = engine.serve_sharded("p2h", &request).expect("sharded serve");
    println!("query-parallel: {:.0} qps, {}", batch.throughput_qps(), batch.latency.summary_ms());
    println!("shard-parallel: {:.0} qps, {}", fanout.throughput_qps(), fanout.latency.summary_ms());

    // The merge is exact and the cold start changes nothing: both paths agree bit for
    // bit with the in-memory build and with the unsharded linear-scan oracle.
    let oracle = LinearScan::new(points);
    for (i, (a, b)) in batch.results.iter().zip(&fanout.results).enumerate() {
        let params = request.params_for(i);
        let expected = oracle.search(&request.queries[i], params);
        assert_eq!(a.neighbors, expected.neighbors);
        assert_eq!(b.neighbors, expected.neighbors);
        assert_eq!(a.neighbors, sharded.search(&request.queries[i], params).neighbors);
    }
    drop(sharded);
    println!("cold-started shard group answers bit-identically to the build and the oracle");

    // Per-shard tail latency, read back from the metrics registry rather than the
    // response: this is what a dashboard scraping the exposition endpoint would see.
    let snapshot = engine.metrics_snapshot();
    for shard in 0..4 {
        let shard_label = shard.to_string();
        let series = snapshot
            .series("p2h_shard_latency_ns", &[("index", "p2h"), ("shard", &shard_label)])
            .expect("per-shard latency series");
        let hist = series.value.histogram().expect("histogram series");
        println!(
            "  shard {shard}: count={} p99≤{} ns (log-bucket upper bound)",
            hist.count(),
            hist.quantile(0.99)
        );
    }

    // The full scrape, exactly as a Prometheus endpoint would serve it.
    println!("\n# --- metrics exposition ---\n{}", engine.render_metrics());

    std::fs::remove_dir_all(&dir).ok();
}
