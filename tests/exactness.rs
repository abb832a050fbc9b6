//! Cross-crate integration tests: every index must return the exact answer (identical to
//! the linear-scan oracle) when run without a candidate budget, across data
//! distributions, dimensions, and values of k.

use p2hnns::{
    generate_queries, BallTreeBuilder, BcTreeBuilder, BcTreeVariant, BranchPreference,
    DataDistribution, FhIndex, FhParams, HyperplaneQuery, LinearScan, NhIndex, NhParams, P2hIndex,
    PointSet, QueryDistribution, SearchParams, SyntheticDataset,
};

fn dataset(distribution: DataDistribution, n: usize, dim: usize, seed: u64) -> PointSet {
    SyntheticDataset::new("integration", n, dim, distribution, seed).generate().unwrap()
}

fn all_distributions() -> Vec<DataDistribution> {
    vec![
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.0 },
        DataDistribution::Correlated { rank: 3, noise: 0.3 },
        DataDistribution::Uniform { scale: 5.0 },
        DataDistribution::HeavyTailedNorms { mu: 0.5, sigma: 0.8 },
    ]
}

#[test]
fn trees_are_exact_on_every_distribution() {
    for (d_idx, distribution) in all_distributions().into_iter().enumerate() {
        let points = dataset(distribution, 1_500, 10, 100 + d_idx as u64);
        let queries = generate_queries(&points, 6, QueryDistribution::DataDifference, 5).unwrap();
        let scan = LinearScan::new(points.clone());
        let ball = BallTreeBuilder::new(50).build(&points).unwrap();
        let bc = BcTreeBuilder::new(50).build(&points).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            for k in [1, 7, 25] {
                let exact = scan.search_exact(q, k);
                assert_eq!(
                    ball.search_exact(q, k).distances(),
                    exact.distances(),
                    "Ball-Tree mismatch: distribution {d_idx}, query {qi}, k={k}"
                );
                assert_eq!(
                    bc.search_exact(q, k).distances(),
                    exact.distances(),
                    "BC-Tree mismatch: distribution {d_idx}, query {qi}, k={k}"
                );
            }
        }
    }
}

#[test]
fn hashing_baselines_are_exact_with_unlimited_budget() {
    let points =
        dataset(DataDistribution::GaussianClusters { clusters: 3, std_dev: 1.5 }, 900, 8, 7);
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 9).unwrap();
    let scan = LinearScan::new(points.clone());
    let nh = NhIndex::build(&points, NhParams::new(2, 8)).unwrap();
    let fh = FhIndex::build(&points, FhParams::new(2, 8, 3)).unwrap();
    for q in &queries {
        let exact = scan.search_exact(q, 10);
        assert_eq!(nh.search_exact(q, 10).distances(), exact.distances(), "NH");
        assert_eq!(fh.search_exact(q, 10).distances(), exact.distances(), "FH");
    }
}

#[test]
fn bc_tree_variants_agree_on_exact_results() {
    let points = dataset(DataDistribution::Correlated { rank: 4, noise: 0.2 }, 2_000, 12, 17);
    let queries = generate_queries(&points, 5, QueryDistribution::RandomNormal, 21).unwrap();
    let bc = BcTreeBuilder::new(80).build(&points).unwrap();
    for q in &queries {
        let reference = bc.search_variant(q, &SearchParams::exact(15), BcTreeVariant::Full);
        for variant in
            [BcTreeVariant::WithoutCone, BcTreeVariant::WithoutBall, BcTreeVariant::WithoutBoth]
        {
            let got = bc.search_variant(q, &SearchParams::exact(15), variant);
            assert_eq!(got.distances(), reference.distances(), "variant {variant:?}");
        }
    }
}

#[test]
fn different_leaf_sizes_do_not_change_exact_answers() {
    let points =
        dataset(DataDistribution::GaussianClusters { clusters: 5, std_dev: 2.0 }, 3_000, 16, 23);
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 31).unwrap();
    let scan = LinearScan::new(points.clone());
    for leaf_size in [10, 100, 1_000, 5_000] {
        let bc = BcTreeBuilder::new(leaf_size).build(&points).unwrap();
        for q in &queries {
            assert_eq!(
                bc.search_exact(q, 10).distances(),
                scan.search_exact(q, 10).distances(),
                "leaf size {leaf_size}"
            );
        }
    }
}

#[test]
fn raw_queries_and_augmented_points_are_consistent() {
    // End-to-end sanity of the dimension conventions: the distance reported by the index
    // for the winning point matches the raw point-to-hyperplane formula (Equation 1).
    let raw_rows: Vec<Vec<f32>> = (0..500)
        .map(|i| vec![(i % 23) as f32 * 0.3, (i % 7) as f32 - 3.0, i as f32 * 0.01])
        .collect();
    let points = PointSet::augment(&raw_rows).unwrap();
    let bc = BcTreeBuilder::new(32).build(&points).unwrap();
    let query = p2hnns::HyperplaneQuery::from_normal_and_bias(&[0.5, -1.0, 2.0], 0.7).unwrap();
    let result = bc.search_exact(&query, 1);
    let winner = result.neighbors[0];
    let direct = query.p2h_distance_raw(&raw_rows[winner.index]);
    assert!((winner.distance - direct).abs() < 1e-4);
    // And no other point is closer.
    for row in &raw_rows {
        assert!(query.p2h_distance_raw(row) + 1e-5 >= winner.distance);
    }
}

/// Asserts ids as well as distances, rank by rank.
fn assert_same_ids_and_bits(
    got: &p2hnns::SearchResult,
    want: &p2hnns::SearchResult,
    context: &str,
) {
    let pairs = |r: &p2hnns::SearchResult| -> Vec<(usize, u32)> {
        r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    };
    assert_eq!(pairs(got), pairs(want), "{context}");
}

/// Every tree search there is — both trees, both branch preferences, every BC-Tree
/// ablation — must return the scan's ids and bits for each `k`.
fn assert_trees_match_scan_ids(points: &PointSet, queries: &[HyperplaneQuery], leaf_size: usize) {
    let scan = LinearScan::new(points.clone());
    let ball = BallTreeBuilder::new(leaf_size).build(points).unwrap();
    let bc = BcTreeBuilder::new(leaf_size).build(points).unwrap();
    let trees: [(&dyn P2hIndex, &str); 2] = [(&ball, "Ball-Tree"), (&bc, "BC-Tree")];
    for (qi, q) in queries.iter().enumerate() {
        for k in [1, 3, 10, 25] {
            let exact = scan.search_exact(q, k);
            for (tree, label) in trees {
                for preference in [BranchPreference::Center, BranchPreference::LowerBound] {
                    let params = SearchParams::exact(k).with_branch_preference(preference);
                    let context = format!("{label}, {preference:?}, query {qi}, k={k}");
                    assert_same_ids_and_bits(&tree.search(q, &params), &exact, &context);
                }
            }
            for variant in
                [BcTreeVariant::WithoutCone, BcTreeVariant::WithoutBall, BcTreeVariant::WithoutBoth]
            {
                let got = bc.search_variant(q, &SearchParams::exact(k), variant);
                assert_same_ids_and_bits(&got, &exact, &format!("{variant:?}, query {qi}, k={k}"));
            }
        }
    }
}

#[test]
fn quantised_distances_tie_across_leaves_and_keep_the_lower_id_like_the_scan() {
    // Every point of the integer lattice {0..5}^4, ids scattered over it, against
    // hyperplanes whose normalised coefficients are all ±0.5: each distance is an exact
    // multiple of 0.5, so the 1 296 points share about twenty distinct distances and
    // the k-th boundary always runs through a crowd of ties spread over many leaves.
    // The scan keeps the lowest ids; so must the trees, whichever leaf they open first.
    let side = 6usize;
    let count = side.pow(4);
    let rows: Vec<Vec<f32>> = (0..count)
        .map(|i| {
            let cell = (i * 577) % count; // 577 is coprime with 6^4: a permutation
            (0..4).map(|axis| (cell / side.pow(axis) % side) as f32).collect()
        })
        .collect();
    let points = PointSet::augment(&rows).unwrap();
    let queries: Vec<HyperplaneQuery> = [
        ([1.0, 1.0, 1.0, 1.0], -9.0),
        ([1.0, -1.0, 1.0, -1.0], 0.5),
        ([1.0, 1.0, -1.0, -1.0], -2.5),
        ([-1.0, 1.0, 1.0, 1.0], -6.0),
    ]
    .iter()
    .map(|(normal, bias)| HyperplaneQuery::from_normal_and_bias(normal, *bias).unwrap())
    .collect();
    assert_trees_match_scan_ids(&points, &queries, 20);
}

#[test]
fn duplicated_rows_tie_at_the_kth_boundary_and_keep_the_lower_id_like_the_scan() {
    // The benchmark's `tight64` recipe (rank-2 data in 64 dimensions whose small
    // distances quantise; where PR 11 first saw a tree and the scan disagree on an id),
    // with every row stored twice so that exact ties are certain: an odd k always
    // splits a pair of equal distances at the boundary.
    let half = dataset(DataDistribution::Correlated { rank: 2, noise: 0.01 }, 1_500, 64, 23);
    let mut flat = half.as_flat().to_vec();
    flat.extend_from_slice(half.as_flat());
    let points = PointSet::from_flat(half.dim(), flat).unwrap();
    let queries = generate_queries(&points, 8, QueryDistribution::DataDifference, 100).unwrap();
    assert_trees_match_scan_ids(&points, &queries, 40);
}

#[test]
fn leaves_of_one_repeated_point_are_not_pruned_at_equality() {
    // Six distinct rows, 64 copies each, ids interleaved. A leaf then holds copies of
    // one point: its radius is 0 and its ball bound *equals* every distance in it. With
    // k below 64 the answer is the lowest ids among the copies of the nearest row, so a
    // leaf whose bound merely equals λ must still be opened.
    //
    // Ids are asserted for the Ball-Tree, whose center products come from the same
    // kernels as the distances, so "equals" holds to the bit. The BC-Tree derives the
    // right child's product by Lemma 2's arithmetic, which rounds: on a radius-0 leaf
    // its bound can exceed the distance by an ulp and prune an exact tie, so only its
    // distances are asserted here (a zero-slack bound is the degenerate case; with any
    // radius the margin dwarfs the rounding, see the test above).
    let distinct = dataset(DataDistribution::Uniform { scale: 4.0 }, 6, 9, 31);
    let copies = 64;
    let mut flat = Vec::new();
    for _ in 0..copies {
        flat.extend_from_slice(distinct.as_flat());
    }
    let points = PointSet::from_flat(distinct.dim(), flat).unwrap();
    let queries = generate_queries(&points, 6, QueryDistribution::RandomNormal, 3).unwrap();
    let scan = LinearScan::new(points.clone());
    let ball = BallTreeBuilder::new(16).build(&points).unwrap();
    let bc = BcTreeBuilder::new(16).build(&points).unwrap();
    for (qi, q) in queries.iter().enumerate() {
        for k in [1, 10, 63, 70] {
            let exact = scan.search_exact(q, k);
            let context = format!("query {qi}, k={k}");
            assert_same_ids_and_bits(&ball.search_exact(q, k), &exact, &context);
            assert_eq!(bc.search_exact(q, k).distances(), exact.distances(), "{context}");
        }
    }
}
