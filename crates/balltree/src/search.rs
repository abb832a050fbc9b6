//! Branch-and-bound search over the Ball-Tree (Algorithm 3 of the paper).
//!
//! The traversal itself is the shared loop in [`crate::traverse`]; this module supplies
//! the Ball-Tree's two rules. Child centers cost two O(d) inner products per expanded
//! node (the cost model of Theorem 5), taken from one two-row blocked matvec because
//! sibling centers are stored adjacently. Leaves are scanned exhaustively (the
//! `ExhaustiveScan` routine): every row of every strip is selected for
//! [`kernels::abs_dot_tile`], so the distances are bit-identical to
//! [`p2h_core::LinearScan`]'s, which shares the dispatched kernels.

use std::ops::Range;

use p2h_core::{
    kernels, HyperplaneQuery, P2hIndex, QueryScratch, Scalar, SearchParams, SearchResult,
    SearchStats,
};

use crate::node::Node;
use crate::traverse::{
    first_rows, search_group, search_one, Selection, TraversalRules, TreeArrays,
};
use crate::tree::BallTree;

/// Paired child dots, plain leaf scan.
struct BallTreeRules;

impl TraversalRules for BallTreeRules {
    type LeafState = ();

    #[inline]
    fn child_ips(
        &self,
        tree: &TreeArrays<'_>,
        q: &[Scalar],
        [_, left, right]: [&Node; 3],
        _ip: Scalar,
    ) -> (Scalar, Scalar, u64) {
        debug_assert_eq!(right.center_offset, left.center_offset + 1);
        let pair_start = left.center_offset as usize * tree.dim;
        let mut pair = [0.0; 2];
        let rows = &tree.centers[pair_start..pair_start + 2 * tree.dim];
        kernels::dot_block(q, rows, tree.dim, &mut pair);
        (pair[0], pair[1], 2)
    }

    #[inline]
    fn enter_leaf(&self, _node_id: u32, _ip: Scalar, _query_norm: Scalar) {}

    #[inline]
    fn select(
        &self,
        _state: &(),
        rows: Range<usize>,
        _leaf_end: usize,
        _lambda: Scalar,
        _stats: &mut SearchStats,
    ) -> Selection {
        Selection { mask: first_rows(rows.len()), leaf_done: false }
    }
}

impl P2hIndex for BallTree {
    fn name(&self) -> &'static str {
        "Ball-Tree"
    }

    fn len(&self) -> usize {
        self.tree.points.len()
    }

    fn dim(&self) -> usize {
        self.tree.points.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.structure_size_bytes()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        self.search_with_scratch(query, params, &mut QueryScratch::new())
    }

    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        search_one(&self.tree.arrays(), &BallTreeRules, query, params, scratch)
    }

    fn search_group_with_scratch(
        &self,
        queries: &[HyperplaneQuery],
        params: &[&SearchParams],
        scratch: &mut QueryScratch,
        out: &mut Vec<SearchResult>,
    ) {
        search_group(&self.tree.arrays(), &BallTreeRules, queries, params, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::BallTreeBuilder;
    use p2h_core::{BranchPreference, LinearScan, PointSet};
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
        SyntheticDataset::new(
            "bt-search",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.5 },
            seed,
        )
        .generate()
        .unwrap()
    }

    fn queries(ps: &PointSet, count: usize) -> Vec<HyperplaneQuery> {
        generate_queries(ps, count, QueryDistribution::DataDifference, 77).unwrap()
    }

    #[test]
    fn exact_search_matches_linear_scan() {
        let ps = dataset(3_000, 12, 1);
        let tree = BallTreeBuilder::new(64).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for (qi, q) in queries(&ps, 10).iter().enumerate() {
            for k in [1, 5, 20] {
                let exact = scan.search_exact(q, k);
                let got = tree.search_exact(q, k);
                assert_eq!(
                    got.distances(),
                    exact.distances(),
                    "query {qi}, k={k}: distances differ"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_searches() {
        let ps = dataset(4_000, 16, 11);
        let tree = BallTreeBuilder::new(64).build(&ps).unwrap();
        let mut scratch = QueryScratch::new();
        for q in &queries(&ps, 12) {
            for params in [SearchParams::exact(5), SearchParams::approximate(3, 400)] {
                let fresh = tree.search(q, &params);
                let reused = tree.search_with_scratch(q, &params, &mut scratch);
                assert_eq!(fresh.neighbors, reused.neighbors);
                assert_eq!(fresh.stats.candidates_verified, reused.stats.candidates_verified);
                assert_eq!(fresh.stats.nodes_visited, reused.stats.nodes_visited);
            }
        }
    }

    #[test]
    fn exact_search_prunes_work() {
        let ps = dataset(20_000, 16, 2);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search_exact(q, 10);
        assert!(
            result.stats.candidates_verified < 20_000,
            "branch-and-bound should verify fewer than all points, verified {}",
            result.stats.candidates_verified
        );
        assert!(result.stats.pruned_subtrees > 0);
        assert_eq!(result.neighbors.len(), 10);
    }

    #[test]
    fn candidate_limit_bounds_verification() {
        let ps = dataset(5_000, 8, 3);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search(q, &SearchParams::approximate(10, 500));
        assert!(result.stats.candidates_verified <= 500);
        assert_eq!(result.neighbors.len(), 10);
    }

    #[test]
    fn larger_candidate_budget_never_hurts_recall() {
        let ps = dataset(5_000, 12, 4);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        let q = &queries(&ps, 1)[0];
        let exact: Vec<usize> = scan.search_exact(q, 10).indices();
        let recall = |limit: usize| {
            let result = tree.search(q, &SearchParams::approximate(10, limit));
            result.indices().iter().filter(|i| exact.contains(i)).count()
        };
        let small = recall(200);
        let large = recall(5_000);
        assert!(large >= small);
        assert_eq!(large, 10, "with an unlimited budget the search is exact");
    }

    #[test]
    fn both_branch_preferences_give_exact_results() {
        let ps = dataset(2_000, 8, 5);
        let tree = BallTreeBuilder::new(50).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for q in &queries(&ps, 5) {
            let exact = scan.search_exact(q, 5);
            for pref in [BranchPreference::Center, BranchPreference::LowerBound] {
                let params = SearchParams::exact(5).with_branch_preference(pref);
                let got = tree.search(q, &params);
                assert_eq!(got.distances(), exact.distances());
            }
        }
    }

    #[test]
    fn center_preference_verifies_no_more_than_lower_bound_on_average() {
        // Section III-C argues the center preference reaches good candidates sooner.
        // With a limited budget it should therefore achieve at least comparable recall.
        let ps = dataset(10_000, 16, 6);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        let qs = queries(&ps, 20);
        let mut center_hits = 0usize;
        let mut lb_hits = 0usize;
        for q in &qs {
            let exact: Vec<usize> = scan.search_exact(q, 10).indices();
            let count = |pref| {
                let params = SearchParams::approximate(10, 1_000).with_branch_preference(pref);
                tree.search(q, &params).indices().iter().filter(|i| exact.contains(i)).count()
            };
            center_hits += count(BranchPreference::Center);
            lb_hits += count(BranchPreference::LowerBound);
        }
        assert!(
            center_hits + 10 >= lb_hits,
            "center preference should not be much worse: center={center_hits}, lb={lb_hits}"
        );
    }

    #[test]
    fn timing_collection_populates_phase_timers() {
        let ps = dataset(2_000, 8, 7);
        let tree = BallTreeBuilder::new(50).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search(q, &SearchParams::exact(5).with_timing());
        assert!(result.stats.time_total_ns > 0);
        assert!(result.stats.time_verify_ns > 0);
        // Without timing the phase timers stay zero.
        let untimed = tree.search_exact(q, 5);
        assert_eq!(untimed.stats.time_verify_ns, 0);
        assert_eq!(untimed.stats.time_bounds_ns, 0);
    }

    #[test]
    fn index_trait_metadata() {
        let ps = dataset(1_000, 8, 8);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        assert_eq!(tree.name(), "Ball-Tree");
        assert_eq!(tree.len(), 1_000);
        assert_eq!(tree.dim(), 9);
        assert!(tree.index_size_bytes() > 0);
    }

    #[test]
    fn k_larger_than_n_returns_all_points() {
        let ps = dataset(50, 4, 9);
        let tree = BallTreeBuilder::new(10).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search_exact(q, 100);
        assert_eq!(result.neighbors.len(), 50);
        let d = result.distances();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
    }
}
