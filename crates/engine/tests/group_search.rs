//! The group path as a property: however a batch is cut into groups — any mix of
//! exact, budgeted and timed queries, per-position `k` and branch preference, any
//! thread count, either tree, a zero-copy mapped tree — every result's neighbors (ids,
//! `f32` distance bits, order) equal `search_with_scratch` on that query alone, and the
//! exact ones equal the `LinearScan` oracle. Half the rows are exact duplicates of the
//! other half, so ties at the k-th boundary are the norm, not a corner.
//!
//! CI re-runs this suite under `P2H_FORCE_SCALAR=1` and both `P2H_STORE_MMAP` modes.

use p2h_core::{
    BranchPreference, LinearScan, P2hIndex, PointSet, QueryScratch, SearchParams, SearchResult,
    GROUP_WIDTH,
};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{
    BallTree, BallTreeBuilder, BatchExecutor, BatchRequest, BcTree, BcTreeBuilder, LoadMode, Store,
};
use proptest::prelude::*;

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

/// `n` points of which the second half repeats the first, row for row.
fn duplicated_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let distribution = if seed.is_multiple_of(2) {
        DataDistribution::Correlated { rank: 2, noise: 0.01 }
    } else {
        DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.2 }
    };
    let half = SyntheticDataset::new("group", n / 2, dim, distribution, seed).generate().unwrap();
    let mut flat = half.as_flat().to_vec();
    flat.extend_from_slice(half.as_flat());
    PointSet::from_flat(half.dim(), flat).unwrap()
}

/// The parameters of position `i`: `pick` 0–3 keeps the batch default.
fn params_of(pick: usize, k: usize) -> SearchParams {
    match pick {
        4 => SearchParams::exact(k / 2 + 1),
        5 => SearchParams::approximate(k, 90),
        6 => SearchParams::exact(k).with_timing(),
        7 => SearchParams::exact(k).with_branch_preference(BranchPreference::LowerBound),
        _ => SearchParams::exact(k),
    }
}

fn assert_same_neighbors(got: &SearchResult, want: &SearchResult, context: &str) {
    assert_eq!(got.neighbors.len(), want.neighbors.len(), "{context}: neighbor count");
    for (rank, (g, w)) in got.neighbors.iter().zip(&want.neighbors).enumerate() {
        assert_eq!(g.index, w.index, "{context}: id at rank {rank}");
        assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "{context}: bits at rank {rank}");
    }
}

/// What any one member's counters must satisfy whatever order its group visited.
fn assert_stats_invariants(result: &SearchResult, n: usize, context: &str) {
    let s = &result.stats;
    let accounted = s.candidates_verified + s.pruned_by_ball_bound + s.pruned_by_cone_bound;
    assert!(accounted <= n as u64, "{context}: {accounted} points accounted for out of {n}");
    assert!(s.inner_products >= s.candidates_verified, "{context}: {s}");
    assert!(s.leaves_visited <= s.nodes_visited, "{context}: {s}");
    assert!(s.nodes_visited >= 1, "{context}: {s}");
}

/// Saves both trees and loads them back: the BC-Tree always memory-mapped, the
/// Ball-Tree by whatever `P2H_STORE_MMAP` selects.
fn through_a_store(ball: &BallTree, bc: &BcTree) -> (BallTree, BcTree) {
    let dir = TestDir::new("group-search");
    let store = Store::create(&dir).unwrap();
    store.save("ball", ball).unwrap();
    store.save("bc", bc).unwrap();
    let loaded_ball: BallTree = store.load("ball").unwrap();
    let mapped_bc: BcTree = store.with_mode(LoadMode::Mmap).load("bc").unwrap();
    (loaded_ball, mapped_bc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn grouped_batches_answer_every_query_as_if_alone(
        seed in 0u64..1_000_000,
        // Batch sizes on both sides of one and two group widths.
        picks in proptest::collection::vec(0usize..8, 1..(2 * GROUP_WIDTH + 4)),
        uniform in 0usize..3,
        leaf_size in 8usize..40,
        k in 1usize..13,
    ) {
        let points = duplicated_points(700, 12, seed);
        let n = points.len();
        let pool = generate_queries(&points, picks.len(), QueryDistribution::DataDifference, seed ^ 7)
            .unwrap();
        let scan = LinearScan::new(points.clone());
        let ball = BallTreeBuilder::new(leaf_size).with_seed(seed).build(&points).unwrap();
        let bc = BcTreeBuilder::new(leaf_size).with_seed(seed).build(&points).unwrap();
        let (loaded_ball, mapped_bc) = through_a_store(&ball, &bc);
        let indexes: [(&dyn P2hIndex, &str); 4] = [
            (&ball, "Ball-Tree"),
            (&bc, "BC-Tree"),
            (&loaded_ball, "Ball-Tree from a store"),
            (&mapped_bc, "BC-Tree mapped"),
        ];

        // One batch in three is uniformly exact (the benchmark's shape); the others mix.
        let mut request = BatchRequest::new(pool.clone(), SearchParams::exact(k));
        if uniform != 0 {
            for (position, &pick) in picks.iter().enumerate().filter(|(_, &pick)| pick >= 4) {
                request = request.with_override(position, params_of(pick, k));
            }
        }

        for (index, label) in indexes {
            let mut scratch = QueryScratch::new();
            let alone: Vec<SearchResult> = (0..pool.len())
                .map(|i| index.search_with_scratch(&pool[i], request.params_for(i), &mut scratch))
                .collect();
            for (i, want) in alone.iter().enumerate() {
                let params = request.params_for(i);
                if params.candidate_limit.is_none() {
                    let oracle = scan.search(&pool[i], params);
                    assert_same_neighbors(want, &oracle, &format!("{label} alone vs scan, q{i}"));
                }
            }

            for threads in [1, 2, 4, 8] {
                let response = BatchExecutor::new(threads).execute(index, &request);
                prop_assert_eq!(response.results.len(), pool.len());
                for (i, (got, want)) in response.results.iter().zip(&alone).enumerate() {
                    let context = format!("{label}, {threads} threads, q{i} of {}", pool.len());
                    assert_same_neighbors(got, want, &context);
                    assert_stats_invariants(got, n, &context);
                    let params = request.params_for(i);
                    if !params.shares_traversal_with(params) {
                        // Answered alone: the work is the sequential search's, too.
                        prop_assert_eq!(got.stats.candidates_verified, want.stats.candidates_verified);
                        prop_assert_eq!(got.stats.nodes_visited, want.stats.nodes_visited);
                    }
                    // Phase timers run for timed queries only, which are never grouped.
                    let phases = got.stats.time_bounds_ns + got.stats.time_verify_ns;
                    prop_assert_eq!(phases > 0, params.collect_timing);
                }
            }
        }
    }

    #[test]
    fn a_group_of_any_width_equals_the_oracle(
        seed in 0u64..1_000_000,
        leaf_size in 8usize..40,
        lower_bound in 0usize..2,
    ) {
        let points = duplicated_points(600, 10, seed);
        let pool = generate_queries(&points, GROUP_WIDTH + 3, QueryDistribution::DataDifference, seed)
            .unwrap();
        let scan = LinearScan::new(points.clone());
        let ball = BallTreeBuilder::new(leaf_size).with_seed(seed).build(&points).unwrap();
        let bc = BcTreeBuilder::new(leaf_size).with_seed(seed).build(&points).unwrap();
        let preference =
            if lower_bound == 1 { BranchPreference::LowerBound } else { BranchPreference::Center };
        // Every member asks for a different k.
        let params: Vec<SearchParams> = (0..pool.len())
            .map(|m| SearchParams::exact(1 + (m * 5) % 17).with_branch_preference(preference))
            .collect();
        let params: Vec<&SearchParams> = params.iter().collect();

        for (index, label) in [(&ball as &dyn P2hIndex, "Ball-Tree"), (&bc, "BC-Tree")] {
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            // Widths 1 to GROUP_WIDTH, then one wider than a group (answered in two).
            for width in 1..=pool.len() {
                out.clear();
                index.search_group_with_scratch(&pool[..width], &params[..width], &mut scratch, &mut out);
                prop_assert_eq!(out.len(), width);
                for (m, got) in out.iter().enumerate() {
                    let context = format!("{label}, width {width}, member {m}");
                    assert_same_neighbors(got, &scan.search(&pool[m], params[m]), &context);
                    assert_stats_invariants(got, points.len(), &context);
                }
                if (2..=GROUP_WIDTH).contains(&width) {
                    // One descent: every member carries the group's wall time.
                    prop_assert!(out.iter().all(|r| r.stats.time_total_ns == out[0].stats.time_total_ns));
                }
            }
        }
    }
}
