//! BC-Tree search (Algorithm 5 of the paper): collaborative inner-product computing at
//! internal nodes and point-level (ball + cone) pruning inside the leaves.
//!
//! The traversal itself is the loop shared with the Ball-Tree
//! (`crate::traverse`); this module supplies the BC-Tree's two rules. Point-level
//! pruning is applied at **strip granularity**: for each strip of up to [`LEAF_STRIP`]
//! leaf rows, both bounds are evaluated for the whole strip, branch-free, and compared
//! with the threshold `q.λ` as of the strip start ([`kernels::mask_gt`]); the surviving
//! rows are a bitmask that goes to one [`kernels::abs_dot_tile`] call, and `q.λ` is
//! refreshed between strips. Because the bounds are true lower bounds, pruning with a
//! slightly stale (i.e. larger or equal) threshold only ever verifies *extra* points —
//! never skips a point that could enter the top-k — so exactness is preserved while the
//! bounds loop and the verification loop both vectorise. Every prune is strict
//! (`lb > λ`): a point whose bound *equals* the k-th distance may still displace an
//! equally distant neighbor with a higher id.

use std::ops::Range;

use p2h_core::{
    kernels, HyperplaneQuery, P2hIndex, QueryScratch, Scalar, SearchParams, SearchResult,
    SearchStats, LEAF_STRIP,
};

use crate::bounds::{point_ball_bound, point_cone_bound, query_decomposition};
use crate::node::Node;
use crate::traverse::{search_group, search_one, Selection, TraversalRules, TreeArrays};
use crate::tree::{BcTree, LeafPointAux};

/// Which point-level lower bounds the search uses (the ablation of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BcTreeVariant {
    /// Both point-level bounds (the full BC-Tree).
    #[default]
    Full,
    /// Only the point-level ball bound ("BC-Tree-wo-C" in the paper).
    WithoutCone,
    /// Only the point-level cone bound ("BC-Tree-wo-B" in the paper).
    WithoutBall,
    /// Neither point-level bound ("BC-Tree-wo-BC"): leaves are scanned exhaustively, but
    /// the collaborative inner-product strategy is still used.
    WithoutBoth,
}

impl BcTreeVariant {
    /// Whether the point-level ball bound is active.
    pub fn uses_ball_bound(self) -> bool {
        matches!(self, BcTreeVariant::Full | BcTreeVariant::WithoutCone)
    }

    /// Whether the point-level cone bound is active.
    pub fn uses_cone_bound(self) -> bool {
        matches!(self, BcTreeVariant::Full | BcTreeVariant::WithoutBall)
    }

    /// The label the paper uses for this variant.
    pub fn label(self) -> &'static str {
        match self {
            BcTreeVariant::Full => "BC-Tree",
            BcTreeVariant::WithoutCone => "BC-Tree-wo-C",
            BcTreeVariant::WithoutBall => "BC-Tree-wo-B",
            BcTreeVariant::WithoutBoth => "BC-Tree-wo-BC",
        }
    }
}

/// Collaborative child dots, point-level ball and cone pruning (as far as `variant`
/// enables them). The buffer-backed arrays are resolved once per search, like
/// [`TreeArrays`].
struct BcTreeRules<'a> {
    center_norms: &'a [Scalar],
    aux: &'a [LeafPointAux],
    variant: BcTreeVariant,
}

/// A member's view of the leaf it is scanning.
#[derive(Debug, Clone, Copy, Default)]
struct LeafQuery {
    /// `‖q‖`.
    norm: Scalar,
    /// `|⟨q, c⟩|` for the leaf center.
    abs_ip: Scalar,
    /// `‖q‖·cos θ` against the leaf center (signed).
    q_cos: Scalar,
    /// `‖q‖·sin θ` against the leaf center.
    q_sin: Scalar,
}

impl TraversalRules for BcTreeRules<'_> {
    type LeafState = LeafQuery;

    /// Collaborative inner-product computing (Lemma 2): one O(d) inner product for the
    /// left child, O(1) arithmetic for the right child.
    #[inline]
    fn child_ips(
        &self,
        tree: &TreeArrays<'_>,
        q: &[Scalar],
        [node, left, right]: [&Node; 3],
        ip: Scalar,
    ) -> (Scalar, Scalar, u64) {
        let ip_left = kernels::dot(q, tree.center(left));
        let size = node.size() as Scalar;
        let size_l = left.size() as Scalar;
        let size_r = right.size() as Scalar;
        let ip_right = (size / size_r) * ip - (size_l / size_r) * ip_left;
        (ip_left, ip_right, 1)
    }

    #[inline]
    fn enter_leaf(&self, node_id: u32, ip: Scalar, query_norm: Scalar) -> LeafQuery {
        let center_norm = self.center_norms[node_id as usize];
        let (q_cos, q_sin) = query_decomposition(ip, center_norm, query_norm);
        LeafQuery { norm: query_norm, abs_ip: ip.abs(), q_cos, q_sin }
    }

    /// The bounds phase of `ScanWithPruning` for one strip: what a row-by-row loop over
    /// the two point-level bounds decides, a strip at a time — each bound goes into an
    /// array for every row (no branch, so the loops vectorise) and is compared with `λ`
    /// in one [`kernels::mask_gt`]. A ball-bound hit prunes the entire remaining leaf:
    /// points are sorted by descending `r_x`, so every later point has an
    /// equal-or-larger bound.
    #[inline]
    fn select(
        &self,
        leaf: &LeafQuery,
        rows: Range<usize>,
        leaf_end: usize,
        lambda: Scalar,
        stats: &mut SearchStats,
    ) -> Selection {
        let strip_start = rows.start;
        let aux = &self.aux[rows];
        let mut bounds = [0.0; LEAF_STRIP];
        let mut selection = Selection { mask: kernels::first_rows(aux.len()), leaf_done: false };
        if self.variant.uses_ball_bound() {
            for (bound, aux) in bounds.iter_mut().zip(aux) {
                *bound = point_ball_bound(leaf.abs_ip, leaf.norm, aux.radius);
            }
            let beyond = kernels::mask_gt(&bounds[..aux.len()], lambda);
            if beyond != 0 {
                let cut = beyond.trailing_zeros() as usize;
                stats.pruned_by_ball_bound += (leaf_end - (strip_start + cut)) as u64;
                selection = Selection { mask: kernels::first_rows(cut), leaf_done: true };
            }
        }
        if self.variant.uses_cone_bound() {
            for (bound, aux) in bounds.iter_mut().zip(aux) {
                *bound = point_cone_bound(leaf.q_cos, leaf.q_sin, aux.x_cos, aux.x_sin);
            }
            let pruned = kernels::mask_gt(&bounds[..aux.len()], lambda) & selection.mask;
            stats.pruned_by_cone_bound += u64::from(pruned.count_ones());
            selection.mask &= !pruned;
        }
        selection
    }
}

impl BcTree {
    /// Runs one query with an explicit ablation [`BcTreeVariant`] (Figure 8).
    pub fn search_variant(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        variant: BcTreeVariant,
    ) -> SearchResult {
        self.search_variant_with_scratch(query, params, variant, &mut QueryScratch::new())
    }

    /// Scratch-reusing twin of [`BcTree::search_variant`].
    pub fn search_variant_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        variant: BcTreeVariant,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        search_one(&self.tree.arrays(), &self.rules(variant), query, params, scratch)
    }

    fn rules(&self, variant: BcTreeVariant) -> BcTreeRules<'_> {
        BcTreeRules { center_norms: &self.center_norms, aux: &self.aux, variant }
    }
}

/// A borrowed view of a [`BcTree`] that answers queries with a fixed ablation
/// [`BcTreeVariant`], so the variants can be used anywhere a [`P2hIndex`] is expected
/// (e.g. the evaluation harness for Figure 8).
#[derive(Debug, Clone, Copy)]
pub struct BcTreeVariantView<'a> {
    tree: &'a BcTree,
    variant: BcTreeVariant,
}

impl BcTree {
    /// Returns a view of this tree that searches with the given ablation variant.
    pub fn with_variant(&self, variant: BcTreeVariant) -> BcTreeVariantView<'_> {
        BcTreeVariantView { tree: self, variant }
    }
}

impl P2hIndex for BcTreeVariantView<'_> {
    fn name(&self) -> &'static str {
        self.variant.label()
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn dim(&self) -> usize {
        self.tree.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.tree.index_size_bytes()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        self.tree.search_variant(query, params, self.variant)
    }

    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.tree.search_variant_with_scratch(query, params, self.variant, scratch)
    }
}

impl P2hIndex for BcTree {
    fn name(&self) -> &'static str {
        "BC-Tree"
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
        self.search_variant(query, params, BcTreeVariant::Full)
    }

    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.search_variant_with_scratch(query, params, BcTreeVariant::Full, scratch)
    }

    fn search_group_with_scratch(
        &self,
        queries: &[HyperplaneQuery],
        params: &[&SearchParams],
        scratch: &mut QueryScratch,
        out: &mut Vec<SearchResult>,
    ) {
        let rules = self.rules(BcTreeVariant::Full);
        search_group(&self.tree.arrays(), &rules, queries, params, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BallTreeBuilder, BcTreeBuilder};
    use p2h_core::{BranchPreference, LinearScan, PointSet};
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
        SyntheticDataset::new(
            "bc-search",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.5 },
            seed,
        )
        .generate()
        .unwrap()
    }

    fn queries(ps: &PointSet, count: usize) -> Vec<HyperplaneQuery> {
        generate_queries(ps, count, QueryDistribution::DataDifference, 123).unwrap()
    }

    /// What `select` must decide, one row at a time: the loop the strip version replaced.
    fn select_row_by_row(
        rules: &BcTreeRules<'_>,
        leaf: &LeafQuery,
        rows: Range<usize>,
        leaf_end: usize,
        lambda: Scalar,
        stats: &mut SearchStats,
    ) -> Selection {
        let mut selection = Selection { mask: 0, leaf_done: false };
        for p in rows.clone() {
            let aux = &rules.aux[p];
            if rules.variant.uses_ball_bound()
                && point_ball_bound(leaf.abs_ip, leaf.norm, aux.radius) > lambda
            {
                stats.pruned_by_ball_bound += (leaf_end - p) as u64;
                selection.leaf_done = true;
                break;
            }
            if rules.variant.uses_cone_bound()
                && point_cone_bound(leaf.q_cos, leaf.q_sin, aux.x_cos, aux.x_sin) > lambda
            {
                stats.pruned_by_cone_bound += 1;
                continue;
            }
            selection.mask |= 1 << (p - rows.start);
        }
        selection
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The strip `select` against the row-by-row reference — mask, `leaf_done` and
        /// both counters — on random leaves, for every variant, with thresholds that
        /// prune nothing (`+∞`), everything, and that *equal* a row's bound (a prune
        /// must be strict).
        #[test]
        fn strip_select_equals_the_row_by_row_reference(
            leaf_rows in 1usize..150,
            start in 0usize..150,
            len in 1usize..LEAF_STRIP + 1,
            seed in 0.0f32..1.0,
            abs_ip in 0.0f32..6.0,
            q_cos in -3.0f32..3.0,
            lambda_pick in 0usize..6,
        ) {
            // A leaf's auxiliaries, sorted by descending radius as the builder leaves them.
            let wave = |i: usize, rate: Scalar| ((i as Scalar + seed) * rate).sin();
            let mut aux: Vec<LeafPointAux> = (0..leaf_rows)
                .map(|i| LeafPointAux {
                    radius: wave(i, 0.37).abs() * 2.5,
                    x_cos: wave(i, 0.91) * 4.0,
                    x_sin: wave(i, 1.73).abs() * 3.0,
                })
                .collect();
            aux.sort_by(|a, b| b.radius.total_cmp(&a.radius));
            let start = start % leaf_rows;
            let rows = start..leaf_rows.min(start + len);
            let norm = 1.0 + seed;
            let leaf = LeafQuery { norm, abs_ip, q_cos, q_sin: (norm * norm + 9.0 - q_cos * q_cos).sqrt() };
            let probe = &aux[rows.start + (rows.len() - 1) * lambda_pick / 5];
            let lambda = match lambda_pick {
                0 => Scalar::INFINITY,
                1 => -1.0,
                2 => point_ball_bound(leaf.abs_ip, leaf.norm, probe.radius),
                3 => point_cone_bound(leaf.q_cos, leaf.q_sin, probe.x_cos, probe.x_sin),
                _ => seed * 4.0,
            };
            for variant in [
                BcTreeVariant::Full,
                BcTreeVariant::WithoutCone,
                BcTreeVariant::WithoutBall,
                BcTreeVariant::WithoutBoth,
            ] {
                let rules = BcTreeRules { center_norms: &[], aux: &aux, variant };
                let (mut got_stats, mut want_stats) = (SearchStats::default(), SearchStats::default());
                let got = rules.select(&leaf, rows.clone(), leaf_rows, lambda, &mut got_stats);
                let want = select_row_by_row(
                    &rules,
                    &leaf,
                    rows.clone(),
                    leaf_rows,
                    lambda,
                    &mut want_stats,
                );
                proptest::prop_assert!(
                    got == want && got_stats == want_stats,
                    "{:?}, rows {:?}, λ {}: {:?} {:?} != {:?} {:?}",
                    variant, rows, lambda, got, got_stats, want, want_stats
                );
            }
        }
    }

    #[test]
    fn exact_search_matches_linear_scan_for_all_variants() {
        let ps = dataset(3_000, 12, 1);
        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for (qi, q) in queries(&ps, 8).iter().enumerate() {
            for k in [1, 10] {
                let exact = scan.search_exact(q, k);
                for variant in [
                    BcTreeVariant::Full,
                    BcTreeVariant::WithoutCone,
                    BcTreeVariant::WithoutBall,
                    BcTreeVariant::WithoutBoth,
                ] {
                    let got = tree.search_variant(q, &SearchParams::exact(k), variant);
                    assert_eq!(
                        got.distances(),
                        exact.distances(),
                        "query {qi}, k={k}, variant {variant:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_searches() {
        let ps = dataset(4_000, 12, 12);
        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let mut scratch = QueryScratch::new();
        for q in &queries(&ps, 10) {
            for params in [SearchParams::exact(7), SearchParams::approximate(5, 300)] {
                let fresh = tree.search(q, &params);
                let reused = tree.search_with_scratch(q, &params, &mut scratch);
                assert_eq!(fresh.neighbors, reused.neighbors);
                assert_eq!(fresh.stats.candidates_verified, reused.stats.candidates_verified);
            }
        }
    }

    #[test]
    fn point_level_pruning_reduces_verification() {
        let ps = dataset(20_000, 16, 2);
        let tree = BcTreeBuilder::new(200).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let full = tree.search_variant(q, &SearchParams::exact(10), BcTreeVariant::Full);
        let none = tree.search_variant(q, &SearchParams::exact(10), BcTreeVariant::WithoutBoth);
        assert_eq!(full.distances(), none.distances(), "pruning must not change the answer");
        assert!(
            full.stats.candidates_verified <= none.stats.candidates_verified,
            "point-level pruning should not increase verification: {} vs {}",
            full.stats.candidates_verified,
            none.stats.candidates_verified
        );
        assert!(
            full.stats.pruned_by_ball_bound + full.stats.pruned_by_cone_bound > 0,
            "the point-level bounds should prune something on clustered data"
        );
    }

    #[test]
    fn collaborative_ip_roughly_halves_center_inner_products() {
        // Theorem 5: BC-Tree spends about half the O(d) center inner products a Ball-Tree
        // spends on the same traversal. The traversal order is identical (same splits,
        // same preference), so compare the `inner_products` spent on internal nodes,
        // i.e. total minus candidate verifications.
        let ps = dataset(10_000, 16, 3);
        let bc = BcTreeBuilder::new(100).with_seed(5).build(&ps).unwrap();
        let ball = BallTreeBuilder::new(100).with_seed(5).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        // Disable point-level pruning so both trees verify identical candidate sets.
        let bc_result = bc.search_variant(q, &SearchParams::exact(10), BcTreeVariant::WithoutBoth);
        let ball_result = ball.search_exact(q, 10);
        assert_eq!(bc_result.distances(), ball_result.distances());
        let bc_center_ips = bc_result.stats.inner_products - bc_result.stats.candidates_verified;
        let ball_center_ips =
            ball_result.stats.inner_products - ball_result.stats.candidates_verified;
        assert!(
            bc_center_ips <= ball_center_ips / 2 + 1,
            "collaborative computing should halve center inner products: bc={bc_center_ips}, ball={ball_center_ips}"
        );
    }

    #[test]
    fn candidate_limit_is_respected() {
        let ps = dataset(5_000, 8, 4);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        for limit in [100, 500, 2_000] {
            let result = tree.search(q, &SearchParams::approximate(10, limit));
            assert!(result.stats.candidates_verified <= limit as u64);
        }
    }

    #[test]
    fn recall_improves_with_budget() {
        let ps = dataset(8_000, 12, 5);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        let qs = queries(&ps, 10);
        let mut small_hits = 0;
        let mut large_hits = 0;
        for q in &qs {
            let exact: Vec<usize> = scan.search_exact(q, 10).indices();
            let hits = |limit| {
                tree.search(q, &SearchParams::approximate(10, limit))
                    .indices()
                    .iter()
                    .filter(|i| exact.contains(i))
                    .count()
            };
            small_hits += hits(200);
            large_hits += hits(4_000);
        }
        assert!(large_hits >= small_hits);
        // Half the data set as candidate budget should recover the large majority of the
        // exact top-10 (the branch-and-bound order visits promising leaves first).
        assert!(
            large_hits as f64 >= 0.7 * (10 * qs.len()) as f64,
            "large-budget recall too low: {large_hits}/{}",
            10 * qs.len()
        );
    }

    #[test]
    fn both_branch_preferences_are_exact() {
        let ps = dataset(2_000, 8, 6);
        let tree = BcTreeBuilder::new(50).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for q in &queries(&ps, 5) {
            let exact = scan.search_exact(q, 5);
            for pref in [BranchPreference::Center, BranchPreference::LowerBound] {
                let got = tree.search(q, &SearchParams::exact(5).with_branch_preference(pref));
                assert_eq!(got.distances(), exact.distances());
            }
        }
    }

    #[test]
    fn timing_collection_populates_phase_timers() {
        let ps = dataset(3_000, 8, 7);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search(q, &SearchParams::exact(5).with_timing());
        assert!(result.stats.time_total_ns > 0);
        assert!(result.stats.time_bounds_ns > 0);
        let untimed = tree.search_exact(q, 5);
        assert_eq!(untimed.stats.time_bounds_ns, 0);
    }

    #[test]
    fn trait_metadata() {
        let ps = dataset(1_000, 8, 8);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        assert_eq!(tree.name(), "BC-Tree");
        assert_eq!(tree.len(), 1_000);
        assert_eq!(tree.dim(), 9);
        assert!(tree.index_size_bytes() > 0);
    }

    #[test]
    fn heavy_tailed_data_is_handled() {
        // Data far from the unit hypersphere: exactly the regime in which the paper's
        // trees must keep working while normalized hashing schemes fail.
        let ps = SyntheticDataset::new(
            "heavy",
            4_000,
            16,
            DataDistribution::HeavyTailedNorms { mu: 1.5, sigma: 1.0 },
            9,
        )
        .generate()
        .unwrap();
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        tree.check_invariants().unwrap();
        let scan = LinearScan::new(ps.clone());
        for q in &queries(&ps, 5) {
            assert_eq!(tree.search_exact(q, 10).distances(), scan.search_exact(q, 10).distances());
        }
    }

    #[test]
    fn k_larger_than_n_returns_all_points() {
        let ps = dataset(60, 4, 10);
        let tree = BcTreeBuilder::new(16).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search_exact(q, 500);
        assert_eq!(result.neighbors.len(), 60);
    }

    #[test]
    fn variant_flags_match_labels() {
        assert!(BcTreeVariant::Full.uses_ball_bound());
        assert!(BcTreeVariant::Full.uses_cone_bound());
        assert!(BcTreeVariant::WithoutCone.uses_ball_bound());
        assert!(!BcTreeVariant::WithoutCone.uses_cone_bound());
        assert!(!BcTreeVariant::WithoutBall.uses_ball_bound());
        assert!(BcTreeVariant::WithoutBall.uses_cone_bound());
        assert!(!BcTreeVariant::WithoutBoth.uses_ball_bound());
        assert!(!BcTreeVariant::WithoutBoth.uses_cone_bound());
        assert_eq!(BcTreeVariant::Full.label(), "BC-Tree");
        assert_eq!(BcTreeVariant::WithoutCone.label(), "BC-Tree-wo-C");
        assert_eq!(BcTreeVariant::WithoutBall.label(), "BC-Tree-wo-B");
        assert_eq!(BcTreeVariant::WithoutBoth.label(), "BC-Tree-wo-BC");
        assert_eq!(BcTreeVariant::default(), BcTreeVariant::Full);
    }
}
