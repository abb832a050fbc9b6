//! Integration tests of the BC-Tree leaf structures and the ablation view against real
//! (synthetic) data: the stored cone decompositions, the batch-pruning order, and the
//! variant wrapper exposed for Figure 8.

use p2h_balltree::{BcTreeBuilder, BcTreeVariant};
use p2h_core::{distance, P2hIndex, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

fn dataset(seed: u64) -> p2h_core::PointSet {
    SyntheticDataset::new(
        "leaf-structures",
        2_000,
        10,
        DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.3 },
        seed,
    )
    .generate()
    .unwrap()
}

#[test]
fn stored_cone_decomposition_matches_direct_computation() {
    let points = dataset(1);
    let tree = BcTreeBuilder::new(50).build(&points).unwrap();
    let reordered = tree.points();
    for node in tree.nodes().iter().filter(|n| n.is_leaf()) {
        let indices: Vec<usize> = (node.start..node.end).map(|p| p as usize).collect();
        let center = reordered.centroid_of(&indices);
        for &pos in &indices {
            let x = reordered.point(pos);
            let aux = tree.leaf_aux()[pos];
            let x_norm = distance::norm(x);
            let cos_phi = distance::cosine(x, &center);
            assert!((aux.x_cos - x_norm * cos_phi).abs() < 1e-2 * (1.0 + x_norm));
            let sin_phi = (1.0 - cos_phi * cos_phi).max(0.0).sqrt();
            assert!((aux.x_sin - x_norm * sin_phi).abs() < 1e-2 * (1.0 + x_norm));
            assert!(aux.x_sin >= 0.0, "‖x‖ sin φ is non-negative by construction");
            assert!(
                (aux.radius - distance::euclidean(x, &center)).abs() < 1e-2 * (1.0 + aux.radius)
            );
        }
    }
}

#[test]
fn variant_view_reports_correct_metadata_and_results() {
    let points = dataset(2);
    let tree = BcTreeBuilder::new(64).build(&points).unwrap();
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 5).unwrap();
    for variant in [
        BcTreeVariant::Full,
        BcTreeVariant::WithoutCone,
        BcTreeVariant::WithoutBall,
        BcTreeVariant::WithoutBoth,
    ] {
        let view = tree.with_variant(variant);
        assert_eq!(view.name(), variant.label());
        assert_eq!(view.len(), tree.len());
        assert_eq!(view.dim(), tree.dim());
        assert_eq!(view.index_size_bytes(), tree.index_size_bytes());
        for q in &queries {
            assert_eq!(
                view.search_exact(q, 5).distances(),
                tree.search_exact(q, 5).distances(),
                "all variants are exact, so they agree with the full tree"
            );
        }
    }
}

#[test]
fn full_variant_prunes_at_least_as_much_as_each_single_bound_variant() {
    let points = dataset(3);
    let tree = BcTreeBuilder::new(100).build(&points).unwrap();
    let queries = generate_queries(&points, 8, QueryDistribution::DataDifference, 7).unwrap();
    let verified = |variant: BcTreeVariant| -> u64 {
        queries
            .iter()
            .map(|q| {
                tree.search_variant(q, &SearchParams::exact(10), variant).stats.candidates_verified
            })
            .sum()
    };
    let full = verified(BcTreeVariant::Full);
    let wo_cone = verified(BcTreeVariant::WithoutCone);
    let wo_ball = verified(BcTreeVariant::WithoutBall);
    let wo_both = verified(BcTreeVariant::WithoutBoth);
    assert!(full <= wo_cone, "adding the cone bound never verifies more ({full} vs {wo_cone})");
    assert!(full <= wo_ball, "adding the ball bound never verifies more ({full} vs {wo_ball})");
    assert!(wo_cone <= wo_both);
    assert!(wo_ball <= wo_both);
}

#[test]
fn batch_break_prunes_leaf_suffixes() {
    // On clustered data with a selective query (k = 1), the ball-bound batch break
    // should discard whole suffixes of at least some leaves.
    let points = dataset(4);
    let tree = BcTreeBuilder::new(100).build(&points).unwrap();
    let queries = generate_queries(&points, 10, QueryDistribution::DataDifference, 9).unwrap();
    let mut total_ball_pruned = 0;
    for q in &queries {
        let result = tree.search_variant(q, &SearchParams::exact(1), BcTreeVariant::WithoutCone);
        total_ball_pruned += result.stats.pruned_by_ball_bound;
    }
    assert!(total_ball_pruned > 0, "the descending-r_x batch break should fire on clustered data");
}

#[test]
fn aux_arrays_cover_every_point_exactly_once() {
    let points = dataset(5);
    let tree = BcTreeBuilder::new(32).build(&points).unwrap();
    assert_eq!(tree.leaf_aux().len(), points.len());
    let mut covered = vec![false; points.len()];
    for node in tree.nodes().iter().filter(|n| n.is_leaf()) {
        for pos in node.start..node.end {
            assert!(!covered[pos as usize], "leaf ranges must not overlap");
            covered[pos as usize] = true;
        }
    }
    assert!(covered.into_iter().all(|c| c), "every point belongs to exactly one leaf");
}
