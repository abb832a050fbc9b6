//! NH: the nearest-neighbor-transformation hashing baseline (Huang et al., SIGMOD'21).

use std::time::Instant;

use p2h_core::{
    distance, HyperplaneQuery, P2hIndex, PointSet, Result, Scalar, SearchParams, SearchResult,
    SearchStats, TopKCollector,
};

use crate::projections::ProjectionTables;
use crate::transform::QuadraticTransform;

/// Configuration of an [`NhIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NhParams {
    /// Sampling dimension multiplier: the transform keeps `λ = lambda_factor · d`
    /// coordinates (the paper sweeps `λ ∈ {d, 2d, 4d, 8d}`).
    pub lambda_factor: usize,
    /// Number of projection tables `m`.
    pub tables: usize,
    /// Number of projection collisions a point needs before it is verified (the
    /// query-aware LSH frequency threshold). Clamped to `tables` at query time.
    pub collision_threshold: usize,
    /// RNG seed for the sampled transform and the projection directions.
    pub seed: u64,
}

impl Default for NhParams {
    fn default() -> Self {
        Self { lambda_factor: 4, tables: 32, collision_threshold: 2, seed: 0 }
    }
}

impl NhParams {
    /// Creates parameters with the given sampling factor and table count.
    pub fn new(lambda_factor: usize, tables: usize) -> Self {
        Self { lambda_factor, tables, ..Self::default() }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The NH index: asymmetric quadratic transform with a norm-alignment coordinate,
/// solved as a nearest-neighbor problem over sorted random projections.
///
/// After the transform, every data point has the same transformed norm `sqrt(M)`, so the
/// Euclidean nearest neighbor of the transformed query is the point minimizing
/// `⟨x, q⟩²` — i.e. the P2H nearest neighbor. The price is the `Ω(d²)` (here `λ`-sampled)
/// transform at indexing time and a heavy distortion of the distance landscape at query
/// time, which is exactly the behaviour the paper's comparison highlights.
#[derive(Debug, Clone)]
pub struct NhIndex {
    points: PointSet,
    transform: QuadraticTransform,
    tables: ProjectionTables,
    params: NhParams,
    /// Norm-alignment constant `M = max_x ‖f(x)‖²`.
    alignment_m: Scalar,
}

impl NhIndex {
    /// Builds an NH index over the given (augmented) point set.
    ///
    /// Indexing cost is `O(n · λ · m)` — the transform is evaluated for every point and
    /// every table projection touches all `λ + 1` transformed coordinates. Compare with
    /// the `O(n · d · log n)` of the trees; this gap is what Table III measures.
    ///
    /// # Errors
    ///
    /// Returns an error if the point set is empty (propagated from the point set) or the
    /// parameters are degenerate.
    pub fn build(points: &PointSet, params: NhParams) -> Result<Self> {
        if params.lambda_factor == 0 || params.tables == 0 {
            return Err(p2h_core::Error::InvalidParameter {
                name: "NhParams",
                message: "lambda_factor and tables must be positive".into(),
            });
        }
        let dim = points.dim();
        let lambda = params.lambda_factor * dim;
        let transform = QuadraticTransform::sampled(dim, lambda, params.seed);

        // First pass: the norm-alignment constant M.
        let mut alignment_m = 0.0 as Scalar;
        for x in points.iter() {
            let fx = transform.transform_data(x);
            alignment_m = alignment_m.max(distance::norm_sq(&fx));
        }

        // Second pass: build the sorted projection tables over [f(x); sqrt(M - ‖f(x)‖²)].
        // The transform is recomputed per point instead of materialized, keeping peak
        // memory at O(λ) instead of O(n·λ).
        let tables = ProjectionTables::build(
            points.len(),
            lambda + 1,
            params.tables,
            params.seed.wrapping_add(1),
            |i| {
                let mut fx = transform.transform_data(points.point(i));
                let tail = (alignment_m - distance::norm_sq(&fx)).max(0.0).sqrt();
                fx.push(tail);
                fx
            },
        );

        Ok(Self { points: points.clone(), transform, tables, params, alignment_m })
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &NhParams {
        &self.params
    }

    /// The indexed (augmented) point set.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// The norm-alignment constant `M`.
    pub fn alignment_constant(&self) -> Scalar {
        self.alignment_m
    }

    /// The sampled transformed dimensionality `λ`.
    pub fn lambda(&self) -> usize {
        self.transform.output_dim()
    }
}

impl P2hIndex for NhIndex {
    fn name(&self) -> &'static str {
        "NH"
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.tables.size_bytes() + std::mem::size_of::<Self>()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        assert_eq!(query.dim(), self.points.dim(), "query dimension mismatch");
        let start = Instant::now();
        let timing = params.collect_timing;
        let mut stats = SearchStats::default();
        let mut collector = TopKCollector::new(params.k);
        let limit = params.candidate_limit.unwrap_or(self.points.len()) as u64;

        // Transform and project the query (the "hash the query" step).
        let lookup_timer = timing.then(Instant::now);
        let mut gq = self.transform.transform_query(query.coeffs(), -1.0);
        gq.push(0.0);
        let query_projections = self.tables.project(&gq);
        let mut stream = self.tables.nearest_candidates(&query_projections);
        if let Some(t) = lookup_timer {
            stats.time_lookup_ns += t.elapsed().as_nanos() as u64;
        }

        // Query-aware collision counting: a point becomes a verification candidate once
        // it has appeared close to the query projection in `collision_threshold` tables.
        let threshold = self.params.collision_threshold.clamp(1, self.params.tables) as u16;
        let mut collisions = vec![0u16; self.points.len()];
        // Resolve the point payload once, outside the per-candidate loop.
        let flat = self.points.as_flat();
        let dim = self.points.dim();
        loop {
            if stats.candidates_verified >= limit {
                break;
            }
            let lookup_timer = timing.then(Instant::now);
            let next = stream.next();
            if let Some(t) = lookup_timer {
                stats.time_lookup_ns += t.elapsed().as_nanos() as u64;
            }
            let Some(id) = next else { break };
            let id = id as usize;
            collisions[id] = collisions[id].saturating_add(1);
            if collisions[id] != threshold {
                continue;
            }

            let verify_timer = timing.then(Instant::now);
            let dist = query.p2h_distance(&flat[id * dim..(id + 1) * dim]);
            stats.inner_products += 1;
            stats.candidates_verified += 1;
            collector.offer(id, dist);
            if let Some(t) = verify_timer {
                stats.time_verify_ns += t.elapsed().as_nanos() as u64;
            }
        }

        stats.buckets_probed = stream.probes();
        stats.time_total_ns = start.elapsed().as_nanos() as u64;
        SearchResult { neighbors: collector.into_sorted_vec(), stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::LinearScan;
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize) -> PointSet {
        SyntheticDataset::new(
            "nh-test",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.0 },
            33,
        )
        .generate()
        .unwrap()
    }

    #[test]
    fn build_and_metadata() {
        let ps = dataset(500, 10);
        let index = NhIndex::build(&ps, NhParams::new(2, 8)).unwrap();
        assert_eq!(index.name(), "NH");
        assert_eq!(index.len(), 500);
        assert_eq!(index.dim(), 11);
        assert_eq!(index.lambda(), 22);
        assert_eq!(index.params().tables, 8);
        assert!(index.alignment_constant() > 0.0);
        assert!(index.index_size_bytes() > 0);
    }

    #[test]
    fn rejects_degenerate_params() {
        let ps = dataset(100, 6);
        assert!(NhIndex::build(&ps, NhParams::new(0, 8)).is_err());
        assert!(NhIndex::build(&ps, NhParams::new(2, 0)).is_err());
    }

    #[test]
    fn unlimited_budget_is_exact() {
        let ps = dataset(800, 8);
        let index = NhIndex::build(&ps, NhParams::new(2, 8)).unwrap();
        let scan = LinearScan::new(ps.clone());
        let queries = generate_queries(&ps, 5, QueryDistribution::DataDifference, 1).unwrap();
        for q in &queries {
            let exact = scan.search_exact(q, 5);
            let got = index.search_exact(q, 5);
            assert_eq!(got.distances(), exact.distances());
        }
    }

    #[test]
    fn candidate_budget_is_respected_and_recall_reasonable() {
        let ps = dataset(4_000, 12);
        let index = NhIndex::build(&ps, NhParams::new(4, 16)).unwrap();
        let scan = LinearScan::new(ps.clone());
        let queries = generate_queries(&ps, 10, QueryDistribution::DataDifference, 2).unwrap();
        let mut hits = 0usize;
        for q in &queries {
            let exact: Vec<usize> = scan.search_exact(q, 10).indices();
            let result = index.search(q, &SearchParams::approximate(10, 1_000));
            assert!(result.stats.candidates_verified <= 1_000);
            assert!(result.stats.buckets_probed > 0);
            hits += result.indices().iter().filter(|i| exact.contains(i)).count();
        }
        // The asymmetric transform adds a large constant to every transformed distance
        // (the distortion error of Section I of the BC-Tree paper), so NH's candidate
        // ordering is only weakly informative at small budgets. With a quarter of the
        // data as candidates we only require recall to be in the ballpark of the budget
        // fraction — i.e. the index is functioning, not broken.
        assert!(
            hits as f64 >= 0.15 * (10 * queries.len()) as f64,
            "NH recall unexpectedly low: {hits}/{}",
            10 * queries.len()
        );
    }

    #[test]
    fn larger_budget_does_not_reduce_hits() {
        let ps = dataset(2_000, 8);
        let index = NhIndex::build(&ps, NhParams::new(2, 16)).unwrap();
        let scan = LinearScan::new(ps.clone());
        let q = &generate_queries(&ps, 1, QueryDistribution::DataDifference, 3).unwrap()[0];
        let exact: Vec<usize> = scan.search_exact(q, 10).indices();
        let hits = |limit| {
            index
                .search(q, &SearchParams::approximate(10, limit))
                .indices()
                .iter()
                .filter(|i| exact.contains(i))
                .count()
        };
        assert!(hits(2_000) >= hits(200));
        assert_eq!(hits(2_000), 10);
    }

    #[test]
    fn timing_collection_populates_lookup_and_verify() {
        let ps = dataset(1_000, 8);
        let index = NhIndex::build(&ps, NhParams::new(2, 8)).unwrap();
        let q = &generate_queries(&ps, 1, QueryDistribution::DataDifference, 4).unwrap()[0];
        let result = index.search(q, &SearchParams::approximate(5, 300).with_timing());
        assert!(result.stats.time_lookup_ns > 0);
        assert!(result.stats.time_verify_ns > 0);
        assert!(result.stats.time_total_ns > 0);
    }
}
