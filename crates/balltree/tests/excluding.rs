//! `search_group_excluding` on both trees, group widths 1–8: the Ball-Tree's own
//! traversal, and the overfetching default on the BC-Tree and on `LinearScan`.
//!
//! * With nothing excluded it is the plain search, neighbors **and every work
//!   counter**: the group search for the Ball-Tree (the `admits` hook costs the
//!   traversal nothing), each member alone for the default.
//! * With points excluded, every exact member's answer is a [`LinearScan`] over the
//!   survivors, in ids and distance bits, however the excluded points sit in the tree —
//!   duplicated rows, scattered bits, and a whole leaf at once.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder, Node};
use p2h_core::{
    is_excluded, HyperplaneQuery, LinearScan, P2hIndex, PointSet, QueryScratch, Scalar,
    SearchParams, SearchResult, SearchStats,
};
use proptest::prelude::*;

const RAW_DIM: usize = 4;

/// `(raw rows, queries as (normal, bias), per-member k, excluded selector, leaf pick)`.
type Case = (Vec<Vec<Scalar>>, Vec<(Vec<Scalar>, Scalar)>, Vec<usize>, Vec<u32>, usize);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(proptest::collection::vec(-4.0f32..4.0, RAW_DIM), 20..300),
        proptest::collection::vec(
            (proptest::collection::vec(-1.0f32..1.0, RAW_DIM), -2.0f32..2.0),
            1..9,
        ),
        proptest::collection::vec(1usize..12, 8),
        proptest::collection::vec(0u32..1_000, 0..40),
        0usize..1_000,
    )
}

/// Every third row repeated: exact ties the total order must break by id.
fn with_duplicates(rows: &[Vec<Scalar>]) -> Vec<Vec<Scalar>> {
    let mut out = rows.to_vec();
    out.extend(rows.iter().step_by(3).cloned());
    out
}

/// Work counters only: the clocks differ between any two runs.
fn work(stats: &SearchStats) -> SearchStats {
    SearchStats { time_total_ns: 0, time_verify_ns: 0, time_bounds_ns: 0, ..*stats }
}

fn answer(result: &SearchResult) -> Vec<(usize, u32)> {
    result.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// The exact top-`k` over the points not set in `excluded`, by a scan of just those.
fn survivors_oracle(
    points: &PointSet,
    excluded: &[u64],
    query: &HyperplaneQuery,
    k: usize,
) -> Vec<(usize, u32)> {
    let kept: Vec<usize> = (0..points.len()).filter(|&i| !is_excluded(excluded, i)).collect();
    if kept.is_empty() {
        return Vec::new();
    }
    let flat: Vec<Scalar> = kept.iter().flat_map(|&i| points.point(i).to_vec()).collect();
    let scan = LinearScan::new(PointSet::from_flat(points.dim(), flat).unwrap());
    let result = scan.search(query, &SearchParams::exact(k));
    result.neighbors.iter().map(|n| (kept[n.index], n.distance.to_bits())).collect()
}

fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// One generated group and the points to exclude from it.
struct Fixture {
    points: PointSet,
    queries: Vec<HyperplaneQuery>,
    ks: Vec<usize>,
    selector: Vec<u32>,
    leaf_pick: usize,
}

/// Checks `index`; `nodes` and `original_ids` are its tree's (empty for a scan).
/// `native`: the index overrides `search_group_excluding` with a group traversal,
/// rather than answering each member alone.
fn check(
    index: &dyn P2hIndex,
    nodes: &[Node],
    original_ids: &[u32],
    native: bool,
    fixture: &Fixture,
) -> Result<(), TestCaseError> {
    let Fixture { points, queries, ks, selector, leaf_pick } = fixture;
    let owned: Vec<SearchParams> =
        ks[..queries.len()].iter().map(|&k| SearchParams::exact(k)).collect();
    let params: Vec<&SearchParams> = owned.iter().collect();
    let mut scratch = QueryScratch::new();

    // Nothing excluded, by an empty and by an all-clear bitset: the plain search.
    let mut plain = Vec::new();
    if native {
        index.search_group_with_scratch(queries, &params, &mut scratch, &mut plain);
    } else {
        for (query, params) in queries.iter().zip(&params) {
            plain.push(index.search_with_scratch(query, params, &mut scratch));
        }
    }
    let clear = vec![0u64; points.len().div_ceil(64)];
    for bits in [&[][..], &clear[..]] {
        let mut got = Vec::new();
        index.search_group_excluding(queries, &params, bits, &mut scratch, &mut got);
        prop_assert_eq!(got.len(), plain.len());
        for (got, plain) in got.iter().zip(&plain) {
            prop_assert_eq!(answer(got), answer(plain));
            prop_assert_eq!(work(&got.stats), work(&plain.stats));
        }
    }

    // Scattered bits plus one whole leaf (when the index is a tree).
    let mut bits = clear.clone();
    for s in selector {
        set(&mut bits, *s as usize % points.len());
    }
    let leaves: Vec<&Node> = nodes.iter().filter(|n| n.is_leaf()).collect();
    if !leaves.is_empty() {
        let leaf = leaves[*leaf_pick % leaves.len()];
        for &id in &original_ids[leaf.start as usize..leaf.end as usize] {
            set(&mut bits, id as usize);
        }
    }
    let mut got = Vec::new();
    index.search_group_excluding(queries, &params, &bits, &mut scratch, &mut got);
    prop_assert_eq!(got.len(), queries.len());
    for ((result, query), &k) in got.iter().zip(queries).zip(ks) {
        prop_assert_eq!(answer(result), survivors_oracle(points, &bits, query, k));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn excluding_is_free_when_empty_and_exact_over_the_survivors(
        (rows, raw_queries, ks, selector, leaf_pick) in case_strategy(),
    ) {
        let points = PointSet::augment(&with_duplicates(&rows)).unwrap();
        let queries: Vec<HyperplaneQuery> = raw_queries
            .iter()
            .filter_map(|(normal, bias)| HyperplaneQuery::from_normal_and_bias(normal, *bias).ok())
            .collect();
        prop_assume!(!queries.is_empty());
        let fixture = Fixture { points, queries, ks, selector, leaf_pick };

        let ball = BallTreeBuilder::new(8).with_seed(7).build(&fixture.points).unwrap();
        check(&ball, ball.nodes(), ball.original_ids(), true, &fixture)?;
        // The overfetching default.
        let bc = BcTreeBuilder::new(8).with_seed(7).build(&fixture.points).unwrap();
        check(&bc, bc.nodes(), bc.original_ids(), false, &fixture)?;
        check(&LinearScan::new(fixture.points.clone()), &[], &[], false, &fixture)?;
    }
}
