//! Exhaustive-scan baseline and ground-truth oracle.

use std::time::Instant;

use crate::scratch::LEAF_STRIP;
use crate::{
    kernels, HyperplaneQuery, P2hIndex, PointSet, QueryScratch, SearchParams, SearchResult,
    SearchStats,
};

/// The trivial P2HNNS method: verify every data point.
///
/// Linear scan is the correctness oracle for every other index in the workspace (it is
/// what "recall" is measured against) and the baseline the paper calls "computationally
/// prohibitive" for large data sets.
#[derive(Debug, Clone)]
pub struct LinearScan {
    points: PointSet,
}

impl LinearScan {
    /// Wraps a point set for exhaustive scanning. No preprocessing is performed.
    pub fn new(points: PointSet) -> Self {
        Self { points }
    }

    /// Returns a reference to the underlying point set.
    pub fn points(&self) -> &PointSet {
        &self.points
    }
}

impl P2hIndex for LinearScan {
    fn name(&self) -> &'static str {
        "Linear-Scan"
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn index_size_bytes(&self) -> usize {
        // Linear scan has no index structure beyond the raw points.
        std::mem::size_of::<Self>()
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
        assert_eq!(
            query.dim(),
            self.points.dim(),
            "query dimension must match the augmented data dimension"
        );
        let start = Instant::now();
        scratch.reset(params.k);
        let QueryScratch { collector, tile: [strip, ..], .. } = scratch;
        let dim = self.points.dim();
        let q = query.coeffs();
        let limit = params.candidate_limit.unwrap_or(usize::MAX).min(self.points.len());

        // Verify in contiguous strips: one blocked matvec per LEAF_STRIP rows instead of
        // one inner-product call per point (same distances bit-for-bit; see kernels).
        let verify_start = Instant::now();
        let mut pos = 0usize;
        while pos < limit {
            let block = (limit - pos).min(LEAF_STRIP);
            kernels::abs_dot_block(
                q,
                self.points.flat_range(pos, pos + block),
                dim,
                &mut strip[..block],
            );
            for (i, &dist) in strip[..block].iter().enumerate() {
                collector.offer(pos + i, dist);
            }
            pos += block;
        }
        let verify_ns = verify_start.elapsed().as_nanos() as u64;

        let stats = SearchStats {
            inner_products: pos as u64,
            candidates_verified: pos as u64,
            time_verify_ns: verify_ns,
            time_total_ns: start.elapsed().as_nanos() as u64,
            ..Default::default()
        };
        SearchResult { neighbors: collector.take_sorted(), stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scalar;

    fn grid_points() -> PointSet {
        // Raw points on a 1-D grid: 0, 1, 2, ..., 9 embedded in R^2 (second coord 0).
        let rows: Vec<Vec<Scalar>> = (0..10).map(|i| vec![i as Scalar, 0.0]).collect();
        PointSet::augment(&rows).unwrap()
    }

    #[test]
    fn finds_point_on_hyperplane() {
        let ps = grid_points();
        let scan = LinearScan::new(ps);
        // Hyperplane x = 4.5: nearest raw points are 4 and 5 at distance 0.5.
        let q = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -4.5).unwrap();
        let result = scan.search_exact(&q, 2);
        let mut idx = result.indices();
        idx.sort_unstable();
        assert_eq!(idx, vec![4, 5]);
        for d in result.distances() {
            assert!((d - 0.5).abs() < 1e-6);
        }
        assert_eq!(result.stats.candidates_verified, 10);
    }

    #[test]
    fn respects_candidate_limit() {
        let ps = grid_points();
        let scan = LinearScan::new(ps);
        let q = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -9.0).unwrap();
        let result = scan.search(&q, &SearchParams::approximate(1, 3));
        // Only the first three points are examined, so the best found is index 2.
        assert_eq!(result.stats.candidates_verified, 3);
        assert_eq!(result.indices(), vec![2]);
    }

    #[test]
    fn returns_sorted_distances() {
        let ps = grid_points();
        let scan = LinearScan::new(ps);
        let q = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -3.0).unwrap();
        let result = scan.search_exact(&q, 5);
        let d = result.distances();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(result.neighbors.len(), 5);
    }

    #[test]
    fn trait_metadata() {
        let ps = grid_points();
        let scan = LinearScan::new(ps);
        assert_eq!(scan.name(), "Linear-Scan");
        assert_eq!(scan.len(), 10);
        assert_eq!(scan.dim(), 3);
        assert!(!scan.is_empty());
        assert!(scan.index_size_bytes() < 1024);
        assert_eq!(scan.points().len(), 10);
    }

    #[test]
    fn scratch_reuse_matches_fresh_search() {
        let ps = grid_points();
        let scan = LinearScan::new(ps);
        let mut scratch = QueryScratch::new();
        for bias in [-1.0, -4.5, -8.0] {
            let q = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], bias).unwrap();
            let fresh = scan.search_exact(&q, 3);
            let reused = scan.search_with_scratch(&q, &SearchParams::exact(3), &mut scratch);
            assert_eq!(fresh.neighbors, reused.neighbors);
        }
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn mismatched_query_dimension_panics() {
        let ps = grid_points();
        let scan = LinearScan::new(ps);
        let q = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap();
        let _ = scan.search_exact(&q, 1);
    }
}
