//! Bounded top-k collection for nearest-neighbor candidates.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Scalar;

/// One answer of a P2HNNS query: a data point index together with its point-to-hyperplane
/// distance `|⟨x, q⟩|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the data point in the original [`crate::PointSet`].
    pub index: usize,
    /// Point-to-hyperplane distance of the data point to the query.
    pub distance: Scalar,
}

impl Neighbor {
    /// Creates a new neighbor record.
    #[inline]
    pub fn new(index: usize, distance: Scalar) -> Self {
        Self { index, distance }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    /// Orders by distance (total order on floats), breaking ties by index so results are
    /// deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance.total_cmp(&other.distance).then_with(|| self.index.cmp(&other.index))
    }
}

/// Merges per-source top-k lists (already mapped to global ids) into the global top-k,
/// using the total [`Neighbor`] order — fully deterministic, no arrival-order tie
/// breaking. Each input list must itself be sorted; the output holds at most
/// `max(k, 1)` neighbors (matching the collector's clamp of `k = 0`).
///
/// This is the single merge used by every fan-out path in the workspace — shard
/// fan-out, the distributed router, and the live memtable-over-base layering — which
/// is what makes their answers bit-identical to an unsharded/rebuilt index.
pub fn merge_topk(k: usize, lists: Vec<Vec<Neighbor>>) -> Vec<Neighbor> {
    let k = k.max(1);
    let mut merged: Vec<Neighbor> = match lists.len() {
        0 => Vec::new(),
        1 => lists.into_iter().next().expect("one list"),
        _ => {
            // Exact-size concatenation: `flatten().collect()` would reallocate while
            // growing (flatten cannot size-hint the total), breaking the fixed
            // shards + 2 per-query allocation budget of the fan-out path.
            let total = lists.iter().map(Vec::len).sum();
            let mut merged = Vec::with_capacity(total);
            for list in &lists {
                merged.extend_from_slice(list);
            }
            merged
        }
    };
    // Per-source lists are tiny (≤ k each), so one sort beats a k-way heap merge in
    // both simplicity and constant factor; `Neighbor`'s `Ord` is the total order.
    merged.sort_unstable();
    merged.truncate(k);
    merged
}

/// Largest `k` whose heap storage is allocated up front. `k` reaches the collector
/// unvalidated from the wire, so a larger one only grows the heap as candidates arrive.
const PRESIZE_LIMIT: usize = 256;

/// A bounded max-heap that keeps the `k` smallest-distance neighbors seen so far.
///
/// This is the `q.bm` / `q.λ` pair of Algorithms 3 and 5 in the paper generalized to
/// top-k: [`TopKCollector::threshold`] is the current `q.λ`, i.e. the distance that a new
/// candidate must beat to enter the result set.
#[derive(Debug, Clone)]
pub struct TopKCollector {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopKCollector {
    /// Creates a collector for the `k` nearest neighbors. `k` is clamped to at least 1.
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Self { k, heap: BinaryHeap::with_capacity(k.min(PRESIZE_LIMIT)) }
    }

    /// The `k` this collector was created with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors currently held (at most `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been offered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the collector already holds `k` neighbors.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The current pruning threshold `q.λ`: the k-th smallest distance seen so far, or
    /// `+∞` while fewer than `k` candidates have been accepted.
    ///
    /// Any candidate (or subtree) whose lower bound is strictly greater than this value
    /// cannot enter the result set and can be pruned. A bound *equal* to it must not
    /// prune: a point at exactly the k-th distance with a lower index still displaces
    /// the incumbent (see [`Self::offer`]).
    #[inline]
    pub fn threshold(&self) -> Scalar {
        if self.is_full() {
            self.heap.peek().map_or(Scalar::INFINITY, |n| n.distance)
        } else {
            Scalar::INFINITY
        }
    }

    /// Offers a candidate; returns `true` if it entered the current top-k.
    ///
    /// Once the collector is full a candidate is admitted iff it precedes the current
    /// worst neighbor under the total [`Neighbor`] order (distance, then index). The
    /// collector therefore always holds the `k` smallest neighbors offered so far under
    /// that order, whatever the order they were offered in — which is what makes an
    /// exact tree search agree with [`crate::LinearScan`] on ids at tied distances.
    #[inline]
    pub fn offer(&mut self, index: usize, distance: Scalar) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(Neighbor::new(index, distance));
            return true;
        }
        // Nearly every offer to a full collector is farther than the worst neighbor
        // held: reject it on one float compare. (False for a NaN on either side, which
        // then takes the total order below like any tie.)
        let worst = self.heap.peek().expect("k >= 1, so a full heap is not empty");
        if distance > worst.distance {
            return false;
        }
        let candidate = Neighbor::new(index, distance);
        if candidate >= *worst {
            return false;
        }
        *self.heap.peek_mut().expect("a full heap is not empty") = candidate;
        true
    }

    /// Prepares the collector for a fresh query: empties the heap (keeping its
    /// allocation) and sets a new `k` (clamped to at least 1).
    ///
    /// This is the reuse hook of the allocation-free query path: a
    /// [`crate::QueryScratch`] resets its collector between queries instead of
    /// constructing a new one, so the heap storage is allocated once per worker rather
    /// than once per query.
    pub fn reset(&mut self, k: usize) {
        self.k = k.max(1);
        self.heap.clear();
        self.heap.reserve(self.k.min(PRESIZE_LIMIT));
    }

    /// Drains the collector and returns the neighbors sorted by ascending distance,
    /// keeping the heap's allocation for reuse (unlike [`Self::into_sorted_vec`]).
    ///
    /// The returned vector is the only allocation: it is the query's answer, owned by
    /// the caller.
    pub fn take_sorted(&mut self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.drain().collect();
        v.sort_unstable();
        v
    }

    /// Consumes the collector and returns the neighbors sorted by ascending distance.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Returns the neighbors sorted by ascending distance without consuming the
    /// collector.
    pub fn to_sorted_vec(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_k_smallest() {
        let mut c = TopKCollector::new(3);
        assert!(c.is_empty());
        assert_eq!(c.threshold(), Scalar::INFINITY);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].iter().enumerate() {
            c.offer(i, *d);
        }
        assert!(c.is_full());
        let result = c.into_sorted_vec();
        let distances: Vec<Scalar> = result.iter().map(|n| n.distance).collect();
        assert_eq!(distances, vec![0.5, 1.0, 2.0]);
        assert_eq!(result[0].index, 5);
    }

    #[test]
    fn threshold_tracks_kth_best() {
        let mut c = TopKCollector::new(2);
        c.offer(0, 10.0);
        assert_eq!(c.threshold(), Scalar::INFINITY, "not full yet");
        c.offer(1, 5.0);
        assert_eq!(c.threshold(), 10.0);
        assert!(c.offer(2, 1.0));
        assert_eq!(c.threshold(), 5.0);
        assert!(!c.offer(3, 9.0), "worse than threshold must be rejected");
        assert_eq!(c.threshold(), 5.0);
    }

    #[test]
    fn k_zero_clamps_to_one() {
        let mut c = TopKCollector::new(0);
        assert_eq!(c.k(), 1);
        c.offer(0, 2.0);
        c.offer(1, 1.0);
        let v = c.into_sorted_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 1);
    }

    #[test]
    fn equal_distances_break_ties_by_index() {
        let a = Neighbor::new(3, 1.0);
        let b = Neighbor::new(5, 1.0);
        assert!(a < b);
        let mut c = TopKCollector::new(1);
        c.offer(5, 1.0);
        // At an equal distance the lower index displaces the incumbent, the higher one
        // does not: the survivor does not depend on the order of the offers.
        assert!(c.offer(3, 1.0));
        assert!(!c.offer(4, 1.0));
        assert_eq!(c.into_sorted_vec(), vec![a]);
    }

    #[test]
    fn reset_reuses_the_heap_and_reclamps_k() {
        let mut c = TopKCollector::new(3);
        for (i, d) in [4.0, 2.0, 6.0, 1.0].iter().enumerate() {
            c.offer(i, *d);
        }
        assert!(c.is_full());
        c.reset(2);
        assert!(c.is_empty());
        assert_eq!(c.k(), 2);
        assert_eq!(c.threshold(), Scalar::INFINITY);
        c.offer(7, 9.0);
        c.offer(8, 3.0);
        let v = c.take_sorted();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].index, 8);
        // take_sorted drained the heap but the collector remains usable.
        assert!(c.is_empty());
        c.offer(1, 1.0);
        assert_eq!(c.len(), 1);
        c.reset(0);
        assert_eq!(c.k(), 1, "k is clamped to at least 1 on reset");
    }

    #[test]
    fn take_sorted_matches_into_sorted_vec() {
        let mut a = TopKCollector::new(4);
        let mut b = TopKCollector::new(4);
        for (i, d) in [5.0, 1.0, 3.0, 2.0, 4.0, 0.5].iter().enumerate() {
            a.offer(i, *d);
            b.offer(i, *d);
        }
        assert_eq!(a.take_sorted(), b.into_sorted_vec());
    }

    #[test]
    fn to_sorted_vec_does_not_consume() {
        let mut c = TopKCollector::new(2);
        c.offer(0, 3.0);
        c.offer(1, 1.0);
        let snapshot = c.to_sorted_vec();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(snapshot, c.into_sorted_vec());
    }

    proptest! {
        #[test]
        fn matches_full_sort(
            distances in proptest::collection::vec(0.0f32..100.0, 1..200),
            k in 1usize..20,
        ) {
            let mut c = TopKCollector::new(k);
            for (i, &d) in distances.iter().enumerate() {
                c.offer(i, d);
            }
            let got: Vec<Scalar> = c.into_sorted_vec().iter().map(|n| n.distance).collect();

            let mut expected = distances.clone();
            expected.sort_by(|a, b| a.total_cmp(b));
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn result_is_independent_of_offer_order(
            // Few distinct values, so the k-th boundary is usually a tie.
            quantised in proptest::collection::vec(0u32..6, 1..120),
            k in 1usize..12,
            rotate in 0usize..120,
        ) {
            let offers: Vec<Neighbor> = quantised
                .iter()
                .enumerate()
                .map(|(i, &d)| Neighbor::new(i, d as Scalar * 0.25))
                .collect();
            let mut expected = offers.clone();
            expected.sort_unstable();
            expected.truncate(k);

            let mut forward = TopKCollector::new(k);
            let mut backward = TopKCollector::new(k);
            let mut rotated = TopKCollector::new(k);
            let shift = rotate % offers.len();
            for i in 0..offers.len() {
                let (f, b) = (offers[i], offers[offers.len() - 1 - i]);
                let r = offers[(i + shift) % offers.len()];
                forward.offer(f.index, f.distance);
                backward.offer(b.index, b.distance);
                rotated.offer(r.index, r.distance);
            }
            prop_assert_eq!(forward.into_sorted_vec(), expected.clone());
            prop_assert_eq!(backward.into_sorted_vec(), expected.clone());
            prop_assert_eq!(rotated.into_sorted_vec(), expected);
        }

        #[test]
        fn threshold_is_monotone_nonincreasing(
            distances in proptest::collection::vec(0.0f32..100.0, 1..100),
            k in 1usize..10,
        ) {
            let mut c = TopKCollector::new(k);
            let mut prev = Scalar::INFINITY;
            for (i, &d) in distances.iter().enumerate() {
                c.offer(i, d);
                let t = c.threshold();
                prop_assert!(t <= prev);
                prev = t;
            }
        }
    }
}
