//! Snapshot-backed serving: build indexes once, persist them to a `p2h-store`
//! directory, then cold-start an engine from that directory — no rebuilding — and
//! verify the loaded indexes answer queries identically to the originals, for a batch
//! whose positions can override the batch's search parameters.
//!
//! The cold start is demonstrated under **both load modes**: `LoadMode::Copy` (decode
//! every array into fresh heap) and the zero-copy `LoadMode::Mmap`, which memory-maps
//! each snapshot file and serves the index arrays directly out of the mapping —
//! near-free startup, no doubled RSS, and the page cache shares the bytes between
//! every process mapping the same store. Answers are bit-identical either way.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example snapshot_serving
//! ```

use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::{
    generate_queries, BallTreeBuilder, BcTreeBuilder, DataDistribution, LinearScan, LoadMode,
    QueryDistribution, SearchParams, Store, SyntheticDataset,
};

fn main() {
    // 1. The "offline" side: a data set and the expensive index builds.
    let points = SyntheticDataset::new(
        "snapshot-serving",
        50_000,
        48,
        DataDistribution::GaussianClusters { clusters: 12, std_dev: 1.5 },
        7,
    )
    .generate()
    .expect("synthetic generation");
    let ball = BallTreeBuilder::new(100).build_parallel(&points, 0).expect("build Ball-Tree");
    let bc = BcTreeBuilder::new(100).build_parallel(&points, 0).expect("build BC-Tree");

    // 2. Snapshot everything to a store directory. Each file is a versioned,
    //    CRC32-checksummed container; the MANIFEST maps names to files.
    let dir = std::env::temp_dir().join("p2hnns-snapshot-serving");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    store.save("ball", &ball).expect("save Ball-Tree");
    store.save("bc", &bc).expect("save BC-Tree");
    store.save("scan", &LinearScan::new(points.clone())).expect("save Linear-Scan");
    println!("snapshotted {:?} into {}", store.names().expect("names"), dir.display());

    // 3. The "serving" side: cold-start purely from the directory. In a real system
    //    this is a different process (or machine) — nothing is rebuilt. `Mmap` maps
    //    each snapshot file and the indexes serve zero-copy out of the mappings
    //    (`Engine::from_store` picks the mode from `P2H_STORE_MMAP`; here we ask for
    //    the zero-copy path explicitly and cross-check a copying cold start too).
    let start = std::time::Instant::now();
    let engine = Engine::from_store_with(&dir, 0, LoadMode::Mmap).expect("mmap cold start");
    let mmap_start = start.elapsed();
    let start = std::time::Instant::now();
    let copying = Engine::from_store_with(&dir, 0, LoadMode::Copy).expect("copy cold start");
    let copy_start = start.elapsed();
    println!(
        "cold-started engine with indexes {:?} (mmap {mmap_start:.2?} vs copy {copy_start:.2?})\n",
        engine.registry().names()
    );

    // 4. A batch of 64 hyperplane queries: budgeted top-10, with two positions
    //    overridden — one exact, one with a very tight budget.
    let queries = generate_queries(&points, 64, QueryDistribution::DataDifference, 11)
        .expect("query generation");
    let request = BatchRequest::new(queries, SearchParams::approximate(10, 2_000))
        .with_override(0, SearchParams::exact(10))
        .with_override(1, SearchParams::approximate(10, 200));

    let reference = Engine::new(0);
    reference.registry().register("ball", ball);
    reference.registry().register("bc", bc);
    reference.registry().register("scan", LinearScan::new(points));

    // 5. Serve it from every loaded index and cross-check against the originals.
    for name in engine.registry().names() {
        let loaded = engine.serve(&name, &request).expect("serve from mmap-loaded index");
        let copied = copying.serve(&name, &request).expect("serve from copy-loaded index");
        let original = reference.serve(&name, &request).expect("serve from original");
        let identical = loaded
            .results
            .iter()
            .zip(&original.results)
            .zip(&copied.results)
            .all(|((a, b), c)| a.neighbors == b.neighbors && a.neighbors == c.neighbors);
        println!(
            "{name:<5} {:>8.0} qps  {}  mmap ≡ copy ≡ in-memory build: {identical}",
            loaded.throughput_qps(),
            loaded.latency.summary_ms(),
        );
        assert!(identical, "loaded index diverged from the original");
    }

    // 6. The overrides were honored (query 1 kept to its 200-candidate budget), and
    //    parallel serving changes no answer: each equals a direct sequential search.
    let response = engine.serve("bc", &request).expect("serve batch");
    let exact = response.results[0].stats.candidates_verified;
    let tight = response.results[1].stats.candidates_verified;
    println!(
        "\noverrides: query 0 (exact) verified {exact} candidates, \
         query 1 (budget 200) verified {tight}"
    );
    assert!(tight <= 200);
    let bc = reference.registry().get("bc").expect("bc registered");
    for (i, result) in response.results.iter().enumerate() {
        let direct = bc.search(&request.queries[i], request.params_for(i));
        assert_eq!(result.neighbors, direct.neighbors);
    }
    println!("parallel batch answers verified identical to sequential search");

    std::fs::remove_dir_all(&dir).ok();
}
