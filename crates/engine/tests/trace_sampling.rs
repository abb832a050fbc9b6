//! Integration test for the sampled tracing pipeline: with `P2H_TRACE=path:rate` set,
//! serving through [`Engine::serve`] writes one JSON-lines record per sampled query —
//! every `rate`-th query in submission order — carrying the stage breakdown, while
//! the answers stay bit-identical to an untraced direct executor run (tracing only
//! adds clock reads on sampled queries; it never changes the search).
//!
//! The same run then snapshots the Ball-Tree and a BC-Tree and cold-starts them under
//! both loaders (copy and mmap): every loaded index answers bit-identically to the
//! tree it was saved from, searched directly and served through the traced path.
//!
//! This file is its own test binary with a single `#[test]`: the trace sink is
//! resolved once per process from the environment (`OnceLock`), so the variable must
//! be set before the first serve and no other test may run in this process.

use p2h_core::{P2hIndex, SearchParams, SearchResult};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{
    BallTreeBuilder, BatchExecutor, BatchRequest, BcTreeBuilder, Engine, LoadMode, Store,
};

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

#[test]
fn sampled_queries_are_traced_without_perturbing_answers() {
    let dir = TestDir::new("trace-sampling");
    let trace_path = dir.join("trace.jsonl");
    // Resolved by the first serve in this process; rate 3 = every third query.
    std::env::set_var("P2H_TRACE", format!("{}:3", trace_path.display()));

    let points = SyntheticDataset::new(
        "trace-test",
        3_000,
        16,
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.2 },
        11,
    )
    .generate()
    .unwrap();
    let tree = BallTreeBuilder::new(32).build(&points).unwrap();
    let queries = generate_queries(&points, 32, QueryDistribution::DataDifference, 5).unwrap();
    let n = queries.len();
    let request = BatchRequest::new(queries, SearchParams::exact(5));

    let reference = BatchExecutor::new(1).execute(&tree, &request);

    // Snapshot the Ball-Tree and a BC-Tree before the engine takes the first.
    let bc = BcTreeBuilder::new(32).build(&points).unwrap();
    let store_dir = dir.join("store");
    let store = Store::create(&store_dir).unwrap();
    store.save("ball", &tree).unwrap();
    store.save("bc", &bc).unwrap();
    let built = [("ball", direct(&tree, &request)), ("bc", direct(&bc, &request))];

    let engine = Engine::new(1);
    engine.registry().register("traced", tree);
    let response = engine.serve("traced", &request).unwrap();

    // Bit identity under tracing: same neighbors, same distance bits.
    assert_bits(&response.results, &reference.results, "traced serve");

    // Every third query of the batch was sampled: queries 0, 3, 6, … → ceil(n/3)
    // records, one JSON object per line, in submission order.
    let contents = std::fs::read_to_string(&trace_path).expect("trace file written");
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), n.div_ceil(3), "one record per sampled query");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON object per line");
        assert!(line.contains("\"index\":\"traced\""));
        assert!(line.contains("\"path\":\"batch\""));
        assert!(line.contains(&format!("\"query\":{}", i * 3)), "submission order: {line}");
        assert!(line.contains("\"k\":5"));
        for key in [
            "\"seq\":",
            "\"latency_ns\":",
            "\"stage_bounds_ns\":",
            "\"stage_verify_ns\":",
            "\"stage_lookup_ns\":",
            "\"stage_merge_ns\":",
            "\"stage_other_ns\":",
            "\"nodes_visited\":",
            "\"candidates_verified\":",
            "\"pruned_subtrees\":",
            "\"result_len\":5",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    // Sampled queries carry real measurements: a Ball-Tree search visits nodes and
    // verifies candidates, and the engine stamps a non-zero latency.
    let first = lines[0];
    assert!(!first.contains("\"latency_ns\":0,"), "sampled query should have latency");
    assert!(!first.contains("\"nodes_visited\":0,"), "tree search visits nodes");

    // Snapshot round trip under both loaders, served through the traced path: the
    // loaded indexes answer bit-identically to the built ones, searched directly and
    // served, and the sink keeps sampling every third query across batches.
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        let loaded = Engine::from_store_with(&store_dir, 1, mode).unwrap();
        for (name, expected) in &built {
            let context = format!("{name} loaded by {mode:?}");
            let index = loaded.registry().get(name).unwrap();
            assert_bits(&direct(index.as_ref(), &request), expected, &context);
            let served = loaded.serve(name, &request).unwrap();
            assert_bits(&served.results, expected, &format!("{context}, traced serve"));
        }
    }
    let contents = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert_eq!(contents.lines().count(), (5 * n).div_ceil(3), "sampling spans batches");

    std::env::remove_var("P2H_TRACE");
}

/// Every query of `request` searched directly on `index`, one at a time.
fn direct(index: &dyn P2hIndex, request: &BatchRequest) -> Vec<SearchResult> {
    let queries = request.queries.iter().enumerate();
    queries.map(|(i, q)| index.search(q, request.params_for(i))).collect()
}

/// Same neighbors, same distance bits.
fn assert_bits(got: &[SearchResult], want: &[SearchResult], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.neighbors.len(), w.neighbors.len(), "{context}: q{qi}");
        for (a, b) in g.neighbors.iter().zip(&w.neighbors) {
            assert_eq!(a.index, b.index, "{context}: q{qi}");
            assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{context}: q{qi}");
        }
    }
}
