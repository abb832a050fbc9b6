//! Shared oracle checker for the layered-serving property tests.
//!
//! A random interleaving of insert/delete/query/compact runs twice: against a
//! [`LiveIndex`] in a throwaway store, and against a plain model (`Vec` of raw rows
//! keyed by global id) whose oracle is a **fresh [`LinearScan`] rebuild** over the
//! model at query time. Every query must agree with the rebuild on global ids *and*
//! raw `f32` distance bits — the crate's central invariant. After the interleaving,
//! the store is reopened under both [`LoadMode`]s (replaying the WAL over the
//! snapshot base) and every recorded query must still agree with the final rebuild.
//!
//! Random deletes almost never hit a top-k, so one op deletes the current top-1 of a
//! recorded query — the active-learning pattern, which puts tombstones exactly where
//! the base search must skip them. After every such delete, at the end, after a final
//! compaction and after each reopen, every recorded query is answered twice: all of
//! them through one read view's group search, and each alone.
//!
//! Every query op also asks under a random `candidate_limit`: a limit of at least the
//! live count must give the exact answer, the budget may be overrun by at most the
//! tombstones the base verifies, and before the first compaction (no base) the answer
//! is a rebuilt linear scan's prefix in id order, verifying exactly the limit.
//!
//! Two test binaries include this module so the dispatched-SIMD and forced-scalar
//! backends each get their own process (the kernel override is process-global).

#![allow(dead_code)]

use p2h_core::{
    HyperplaneQuery, LinearScan, P2hIndex, PointSet, QueryScratch, Scalar, SearchParams,
    SearchResult,
};
use p2h_live::LiveIndex;
use p2h_store::{LoadMode, Store};
use proptest::prelude::*;
use proptest::TestCaseError;

#[path = "../../../store/tests/common/mod.rs"]
mod test_dir;

use test_dir::TestDir;

/// Raw (unaugmented) dimensionality of every generated point.
pub const RAW_DIM: usize = 3;

/// One generated op: `(tag, selector, coords, bias)`, interpreted by
/// [`check_interleaving`] — tags 0–4 insert `coords`, 5–6 query the hyperplane
/// `(coords, bias)` with `k = 1 + selector % 6`, 7–8 delete the `selector`-th live
/// point, 9 compacts, 10–11 delete the top-1 of the `selector`-th recorded query. A
/// query op is asked again under the candidate limit `selector / 6 % (live count + 3)`.
pub type OpTuple = (u32, u32, Vec<Scalar>, Scalar);

/// Strategy for one interleaving: up to 40 ops over `RAW_DIM`-dimensional points.
pub fn ops_strategy() -> impl Strategy<Value = Vec<OpTuple>> {
    proptest::collection::vec(
        (0u32..12, 0u32..1_000_000, proptest::collection::vec(-1.0f32..1.0, RAW_DIM), -2.0f32..2.0),
        0..40,
    )
}

/// `(global id, distance bits)` pairs — the exact comparison currency.
type Answer = Vec<(u32, u32)>;

/// The fresh-rebuild oracle: a [`LinearScan`] over the model rows in id order.
fn oracle_answer(model: &[(u32, Vec<Scalar>)], query: &HyperplaneQuery, k: usize) -> Answer {
    oracle_search(model, query, &SearchParams::exact(k))
}

/// [`oracle_answer`] under any parameters (a budget scans the first rows in id order).
fn oracle_search(
    model: &[(u32, Vec<Scalar>)],
    query: &HyperplaneQuery,
    params: &SearchParams,
) -> Answer {
    if model.is_empty() {
        return Vec::new();
    }
    let rows: Vec<Vec<Scalar>> = model.iter().map(|(_, row)| row.clone()).collect();
    let scan = LinearScan::new(PointSet::augment(&rows).expect("oracle point set"));
    let result = scan.search(query, params);
    result.neighbors.iter().map(|n| (model[n.index].0, n.distance.to_bits())).collect()
}

fn answer_of(result: &SearchResult) -> Answer {
    result.neighbors.iter().map(|n| (n.index as u32, n.distance.to_bits())).collect()
}

fn live_answer(
    live: &LiveIndex,
    query: &HyperplaneQuery,
    k: usize,
) -> Result<Answer, TestCaseError> {
    match live.search_exact(query, k) {
        Ok(result) => Ok(answer_of(&result)),
        Err(e) => Err(TestCaseError::Fail(format!("layered search failed: {e}"))),
    }
}

/// Every recorded query against the rebuild oracle, answered as one group through a
/// read view and then one by one.
fn check_recorded(
    live: &LiveIndex,
    recorded: &[(HyperplaneQuery, usize)],
    model: &[(u32, Vec<Scalar>)],
) -> Result<(), TestCaseError> {
    let queries: Vec<HyperplaneQuery> = recorded.iter().map(|(q, _)| q.clone()).collect();
    let owned: Vec<SearchParams> = recorded.iter().map(|&(_, k)| SearchParams::exact(k)).collect();
    let params: Vec<&SearchParams> = owned.iter().collect();
    let mut grouped = Vec::new();
    live.read_view().as_index().search_group_with_scratch(
        &queries,
        &params,
        &mut QueryScratch::new(),
        &mut grouped,
    );
    prop_assert_eq!(grouped.len(), recorded.len());
    for ((query, k), result) in recorded.iter().zip(&grouped) {
        let want = oracle_answer(model, query, *k);
        prop_assert_eq!(&answer_of(result), &want);
        prop_assert_eq!(live_answer(live, query, *k)?, want);
    }
    Ok(())
}

/// One budgeted query, alone and as the first member of a group whose second member
/// is the same query unbudgeted (so the view splits the group).
fn check_budgeted(
    live: &LiveIndex,
    query: &HyperplaneQuery,
    k: usize,
    limit: usize,
    model: &[(u32, Vec<Scalar>)],
    deletes: usize,
    compacted: bool,
) -> Result<(), TestCaseError> {
    let budgeted = SearchParams { candidate_limit: Some(limit), ..SearchParams::exact(k) };
    let alone = match live.search(query, &budgeted) {
        Ok(result) => result,
        Err(e) => return Err(TestCaseError::Fail(format!("budgeted search failed: {e}"))),
    };
    let got = answer_of(&alone);
    let verified = alone.stats.candidates_verified as usize;
    prop_assert!(verified <= limit + deletes, "verified {} over limit {}", verified, limit);
    if limit >= model.len() {
        prop_assert_eq!(&got, &oracle_answer(model, query, k));
    }
    if !compacted {
        prop_assert_eq!(&got, &oracle_search(model, query, &budgeted));
        prop_assert_eq!(verified, limit.min(model.len()));
    }

    let exact = SearchParams::exact(k);
    let mut grouped = Vec::new();
    live.read_view().as_index().search_group_with_scratch(
        &[query.clone(), query.clone()],
        &[&budgeted, &exact],
        &mut QueryScratch::new(),
        &mut grouped,
    );
    prop_assert_eq!(grouped.len(), 2);
    prop_assert_eq!(answer_of(&grouped[0]), got);
    prop_assert_eq!(answer_of(&grouped[1]), oracle_answer(model, query, k));
    Ok(())
}

/// Augments a raw model row the way [`LiveIndex::insert`] does.
fn augmented(row: &[Scalar]) -> Vec<Scalar> {
    let mut point = row.to_vec();
    point.push(1.0);
    point
}

/// Runs one interleaving against the live index and the rebuild oracle. Returns
/// `Err(TestCaseError::Fail)` on the first divergence.
pub fn check_interleaving(tag: &str, ops: &[OpTuple]) -> Result<(), TestCaseError> {
    let dir = TestDir::new(tag);
    let store = Store::create(&dir).expect("create store");
    let live = LiveIndex::create(&store, "stream", RAW_DIM + 1).expect("create live index");

    let mut model: Vec<(u32, Vec<Scalar>)> = Vec::new();
    let mut recorded: Vec<(HyperplaneQuery, usize)> = Vec::new();
    // Successful deletes so far (a bound on the base's tombstones), and whether a base
    // exists yet.
    let mut deletes = 0usize;
    let mut compacted = false;

    for (tag_value, selector, coords, bias) in ops {
        match tag_value {
            0..=4 => {
                let id = match live.insert(coords) {
                    Ok(id) => id,
                    Err(e) => return Err(TestCaseError::Fail(format!("insert failed: {e}"))),
                };
                model.push((id, coords.clone()));
            }
            5 | 6 => {
                let Ok(query) = HyperplaneQuery::from_normal_and_bias(coords, *bias) else {
                    continue; // degenerate normal — skip, not a property violation
                };
                let k = 1 + (*selector as usize) % 6;
                prop_assert_eq!(live_answer(&live, &query, k)?, oracle_answer(&model, &query, k));
                let limit = (*selector as usize / 6) % (model.len() + 3);
                check_budgeted(&live, &query, k, limit, &model, deletes, compacted)?;
                recorded.push((query, k));
            }
            7 | 8 => {
                if model.is_empty() {
                    // Nothing live: any id must answer NotFound, and the refusal
                    // must never reach the WAL (checked implicitly on reopen).
                    prop_assert!(live.delete(*selector).is_err());
                } else {
                    let victim = *selector as usize % model.len();
                    let (id, _) = model.remove(victim);
                    if let Err(e) = live.delete(id) {
                        return Err(TestCaseError::Fail(format!("delete({id}) failed: {e}")));
                    }
                    deletes += 1;
                    // A second delete of the same id must be NotFound.
                    prop_assert!(live.delete(id).is_err());
                }
            }
            9 => {
                if let Err(e) = live.compact() {
                    return Err(TestCaseError::Fail(format!("compact failed: {e}")));
                }
                compacted = true;
            }
            _ => {
                if recorded.is_empty() {
                    continue;
                }
                let (query, k) = &recorded[*selector as usize % recorded.len()];
                let Some(&(id, _)) = oracle_answer(&model, query, *k).first() else {
                    continue;
                };
                if let Err(e) = live.delete(id) {
                    return Err(TestCaseError::Fail(format!("delete top-1 {id} failed: {e}")));
                }
                deletes += 1;
                model.retain(|(live_id, _)| *live_id != id);
                check_recorded(&live, &recorded, &model)?;
            }
        }
    }
    check_recorded(&live, &recorded, &model)?;

    // The live set itself must match the model bit-for-bit, in ascending id order.
    let expected: Vec<(u32, Vec<Scalar>)> =
        model.iter().map(|(id, row)| (*id, augmented(row))).collect();
    prop_assert_eq!(live.live_points(), expected.clone());

    // Reopen under both load modes: WAL replay over the (possibly compacted) base
    // must reconstruct the same state, and every recorded query must still agree
    // with a rebuild over the final model, before and after a compaction.
    drop(live);
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        let reopened_store = Store::open_with(&dir, mode).expect("reopen store");
        let reopened = match LiveIndex::open(&reopened_store, "stream") {
            Ok(live) => live,
            Err(e) => return Err(TestCaseError::Fail(format!("reopen ({mode:?}) failed: {e}"))),
        };
        prop_assert_eq!(reopened.live_points(), expected.clone());
        check_recorded(&reopened, &recorded, &model)?;
        // Fold the replayed tombstones into a fresh base (the next reopen loads it).
        if let Err(e) = reopened.compact() {
            return Err(TestCaseError::Fail(format!("compact ({mode:?}) failed: {e}")));
        }
        check_recorded(&reopened, &recorded, &model)?;
    }
    Ok(())
}
