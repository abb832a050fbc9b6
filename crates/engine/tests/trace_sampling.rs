//! Integration test for the sampled tracing pipeline: with `P2H_TRACE=path:rate` set,
//! serving through [`Engine::serve`] writes one JSON-lines record per sampled query —
//! every `rate`-th query in submission order — carrying the stage breakdown, while
//! the answers stay bit-identical to an untraced direct executor run (tracing only
//! adds clock reads on sampled queries; it never changes the search).
//!
//! This file is its own test binary with a single `#[test]`: the trace sink is
//! resolved once per process from the environment (`OnceLock`), so the variable must
//! be set before the first serve and no other test may run in this process.

use p2h_core::SearchParams;
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BallTreeBuilder, BatchExecutor, BatchRequest, Engine};

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

    let engine = Engine::new(1);
    engine.registry().register("traced", tree);
    let response = engine.serve("traced", &request).unwrap();

    // Bit identity under tracing: same neighbors, same distance bits.
    assert_eq!(response.results.len(), reference.results.len());
    for (served, reference) in response.results.iter().zip(reference.results.iter()) {
        assert_eq!(served.neighbors.len(), reference.neighbors.len());
        for (a, b) in served.neighbors.iter().zip(reference.neighbors.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

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

    std::env::remove_var("P2H_TRACE");
}
