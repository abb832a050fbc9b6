//! FH: the furthest-neighbor-transformation hashing baseline (Huang et al., SIGMOD'21).

use std::time::Instant;

use p2h_core::{
    distance, HyperplaneQuery, P2hIndex, PointSet, Result, Scalar, SearchParams, SearchResult,
    SearchStats, TopKCollector, VecBuf,
};

use crate::projections::ProjectionTables;
use crate::transform::QuadraticTransform;

/// Configuration of an [`FhIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FhParams {
    /// Sampling dimension multiplier (`λ = lambda_factor · d`).
    pub lambda_factor: usize,
    /// Number of projection tables `m` per partition.
    pub tables: usize,
    /// Number of norm-based partitions `l` (the paper's separation threshold sweeps
    /// `l ∈ {2, 4, 6}`).
    pub partitions: usize,
    /// Number of projection collisions a point needs before it is verified. Clamped to
    /// `tables` at query time.
    pub collision_threshold: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FhParams {
    fn default() -> Self {
        Self { lambda_factor: 4, tables: 16, partitions: 4, collision_threshold: 2, seed: 0 }
    }
}

impl FhParams {
    /// Creates parameters with the given sampling factor, table count and partitions.
    pub fn new(lambda_factor: usize, tables: usize, partitions: usize) -> Self {
        Self { lambda_factor, tables, partitions, ..Self::default() }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One norm-based partition of the transformed data.
#[derive(Debug, Clone)]
struct Partition {
    /// Global point ids belonging to this partition (owned or mapped; snapshot loaders
    /// restore these zero-copy from the mapped region).
    ids: VecBuf<u32>,
    /// Sorted projection tables over the partition's transformed vectors
    /// (local id = index into `ids`).
    tables: ProjectionTables,
}

/// The FH index: asymmetric quadratic transform without norm alignment, solved as a
/// furthest-neighbor problem with norm-based data partitioning.
///
/// `‖f(x) − g(q)‖² = ‖f(x)‖² + ‖g(q)‖² + 2⟨x, q⟩²` grows with `⟨x, q⟩²`, so *within a
/// partition of (approximately) equal transformed norms* the furthest transformed point
/// is the P2H nearest neighbor. FH therefore buckets points into `l` partitions by
/// `‖f(x)‖` and probes the projection extremes of each partition.
#[derive(Debug, Clone)]
pub struct FhIndex {
    points: PointSet,
    transform: QuadraticTransform,
    partitions: Vec<Partition>,
    params: FhParams,
}

impl FhIndex {
    /// Builds an FH index over the given (augmented) point set.
    ///
    /// Indexing cost is `O(n · λ · m)` plus an `O(n log n)` sort for the norm
    /// partitioning — the "extra cost for data partitioning" the paper mentions.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are degenerate.
    pub fn build(points: &PointSet, params: FhParams) -> Result<Self> {
        if params.lambda_factor == 0 || params.tables == 0 || params.partitions == 0 {
            return Err(p2h_core::Error::InvalidParameter {
                name: "FhParams",
                message: "lambda_factor, tables and partitions must be positive".into(),
            });
        }
        let dim = points.dim();
        let n = points.len();
        let lambda = params.lambda_factor * dim;
        let transform = QuadraticTransform::sampled(dim, lambda, params.seed);

        // Rank points by transformed norm and cut into `l` equal-size partitions.
        let mut norms: Vec<(Scalar, u32)> = (0..n)
            .map(|i| (distance::norm_sq(&transform.transform_data(points.point(i))), i as u32))
            .collect();
        norms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let l = params.partitions.min(n);
        let per_partition = n.div_ceil(l);

        let mut partitions = Vec::with_capacity(l);
        for chunk in norms.chunks(per_partition) {
            let ids: Vec<u32> = chunk.iter().map(|&(_, id)| id).collect();
            let tables = ProjectionTables::build(
                ids.len(),
                lambda,
                params.tables,
                params.seed.wrapping_add(partitions.len() as u64 + 1),
                |local| transform.transform_data(points.point(ids[local] as usize)),
            );
            partitions.push(Partition { ids: ids.into(), tables });
        }

        Ok(Self { points: points.clone(), transform, partitions, params })
    }

    /// Reassembles an FH index from its constituent parts — the inverse of reading
    /// [`FhIndex::transform`], [`FhIndex::partition_ids`], and
    /// [`FhIndex::partition_tables`] off a built index (the snapshot load path; the
    /// arrays are restored verbatim, so the reassembled index answers identically).
    ///
    /// The `partitions` argument pairs each partition's global point ids with the
    /// projection tables built over its transformed vectors (local id = position in the
    /// id list).
    ///
    /// # Errors
    ///
    /// Returns a typed error (never panics) if the parts are inconsistent: degenerate
    /// parameters, a transform/point dimension mismatch, partition tables whose
    /// dimensionality is not `λ` or whose length differs from the id list, or partition
    /// id lists that are not a disjoint cover of `0..n`.
    pub fn from_parts(
        points: PointSet,
        transform: QuadraticTransform,
        partitions: Vec<(VecBuf<u32>, ProjectionTables)>,
        params: FhParams,
    ) -> Result<Self> {
        use p2h_core::Error;
        if params.lambda_factor == 0 || params.tables == 0 || params.partitions == 0 {
            return Err(Error::Corrupt("FH params must be positive".into()));
        }
        if transform.input_dim() != points.dim() {
            return Err(Error::Corrupt(format!(
                "FH transform input dim {} differs from point dim {}",
                transform.input_dim(),
                points.dim()
            )));
        }
        if partitions.is_empty() {
            return Err(Error::Corrupt("FH needs at least one partition".into()));
        }
        let n = points.len();
        let mut seen = vec![false; n];
        for (ids, tables) in &partitions {
            if tables.dim() != transform.output_dim() {
                return Err(Error::Corrupt(format!(
                    "FH partition table dim {} is not λ = {}",
                    tables.dim(),
                    transform.output_dim()
                )));
            }
            if tables.len() != ids.len() || ids.is_empty() {
                return Err(Error::Corrupt(format!(
                    "FH partition holds {} ids but indexes {} vectors",
                    ids.len(),
                    tables.len()
                )));
            }
            if params.tables != tables.table_count() {
                return Err(Error::Corrupt(format!(
                    "FH params declare {} tables, {} present",
                    params.tables,
                    tables.table_count()
                )));
            }
            for &id in ids.iter() {
                let id = id as usize;
                if id >= n || seen[id] {
                    return Err(Error::Corrupt(
                        "FH partition ids are not a disjoint cover of the points".into(),
                    ));
                }
                seen[id] = true;
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(Error::Corrupt("FH partitions do not cover every point".into()));
        }
        let partitions =
            partitions.into_iter().map(|(ids, tables)| Partition { ids, tables }).collect();
        Ok(Self { points, transform, partitions, params })
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &FhParams {
        &self.params
    }

    /// The indexed (augmented) point set.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// The sampled quadratic transform. Exposed (with the partition accessors) so
    /// persistence layers can serialize the index without rebuilding it.
    pub fn transform(&self) -> &QuadraticTransform {
        &self.transform
    }

    /// Number of norm-based partitions actually created.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The global point ids of partition `p` (local table id = position in this list).
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.partition_count()`.
    pub fn partition_ids(&self, p: usize) -> &[u32] {
        &self.partitions[p].ids
    }

    /// The projection tables of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.partition_count()`.
    pub fn partition_tables(&self, p: usize) -> &ProjectionTables {
        &self.partitions[p].tables
    }
}

impl P2hIndex for FhIndex {
    fn name(&self) -> &'static str {
        "FH"
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.tables.size_bytes() + p.ids.heap_bytes()).sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        assert_eq!(query.dim(), self.points.dim(), "query dimension mismatch");
        let start = Instant::now();
        let timing = params.collect_timing;
        let mut stats = SearchStats::default();
        let mut collector = TopKCollector::new(params.k);
        let limit = params.candidate_limit.unwrap_or(self.points.len()) as u64;

        // Transform the query once and open a furthest-first stream per partition.
        let lookup_timer = timing.then(Instant::now);
        let gq = self.transform.transform_query(query.coeffs(), 1.0);
        let mut streams: Vec<_> = self
            .partitions
            .iter()
            .map(|p| {
                let projections = p.tables.project(&gq);
                p.tables.furthest_candidates(&projections)
            })
            .collect();
        if let Some(t) = lookup_timer {
            stats.time_lookup_ns += t.elapsed().as_nanos() as u64;
        }

        // Query-aware collision counting: a point becomes a verification candidate once
        // it has appeared near the projection extremes in `collision_threshold` tables.
        let threshold = self.params.collision_threshold.clamp(1, self.params.tables) as u16;
        let mut collisions = vec![0u16; self.points.len()];
        // Resolve the buffer-backed point payload once (see NH: mapped `VecBuf`
        // derefs must stay out of the per-candidate loop).
        let flat = self.points.as_flat();
        let dim = self.points.dim();
        let mut active = true;
        // Round-robin over partitions so each contributes candidates evenly.
        while active && stats.candidates_verified < limit {
            active = false;
            for (p, stream) in self.partitions.iter().zip(streams.iter_mut()) {
                if stats.candidates_verified >= limit {
                    break;
                }
                let lookup_timer = timing.then(Instant::now);
                let next = stream.next();
                if let Some(t) = lookup_timer {
                    stats.time_lookup_ns += t.elapsed().as_nanos() as u64;
                }
                let Some(local) = next else { continue };
                active = true;
                let id = p.ids[local as usize] as usize;
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
        }

        stats.buckets_probed = streams.iter().map(|s| s.probes()).sum();
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
            "fh-test",
            n,
            dim,
            DataDistribution::HeavyTailedNorms { mu: 0.8, sigma: 0.6 },
            44,
        )
        .generate()
        .unwrap()
    }

    #[test]
    fn build_and_metadata() {
        let ps = dataset(600, 10);
        let index = FhIndex::build(&ps, FhParams::new(2, 8, 3)).unwrap();
        assert_eq!(index.name(), "FH");
        assert_eq!(index.len(), 600);
        assert_eq!(index.dim(), 11);
        assert_eq!(index.partition_count(), 3);
        assert_eq!(index.params().tables, 8);
        assert!(index.index_size_bytes() > 0);
    }

    #[test]
    fn rejects_degenerate_params() {
        let ps = dataset(100, 6);
        assert!(FhIndex::build(&ps, FhParams::new(0, 8, 2)).is_err());
        assert!(FhIndex::build(&ps, FhParams::new(2, 0, 2)).is_err());
        assert!(FhIndex::build(&ps, FhParams::new(2, 8, 0)).is_err());
    }

    #[test]
    fn more_partitions_than_points_is_clamped() {
        let ps = dataset(10, 4);
        let index = FhIndex::build(&ps, FhParams::new(1, 2, 50)).unwrap();
        assert!(index.partition_count() <= 10);
    }

    #[test]
    fn unlimited_budget_is_exact() {
        let ps = dataset(700, 8);
        let index = FhIndex::build(&ps, FhParams::new(2, 8, 4)).unwrap();
        let scan = LinearScan::new(ps.clone());
        let queries = generate_queries(&ps, 5, QueryDistribution::DataDifference, 5).unwrap();
        for q in &queries {
            let exact = scan.search_exact(q, 5);
            let got = index.search_exact(q, 5);
            assert_eq!(got.distances(), exact.distances());
        }
    }

    #[test]
    fn candidate_budget_is_respected_and_recall_reasonable() {
        let ps = dataset(4_000, 12);
        let index = FhIndex::build(&ps, FhParams::new(4, 16, 4)).unwrap();
        let scan = LinearScan::new(ps.clone());
        let queries = generate_queries(&ps, 10, QueryDistribution::DataDifference, 6).unwrap();
        let mut hits = 0usize;
        for q in &queries {
            let exact: Vec<usize> = scan.search_exact(q, 10).indices();
            let result = index.search(q, &SearchParams::approximate(10, 1_000));
            assert!(result.stats.candidates_verified <= 1_000);
            assert!(result.stats.buckets_probed > 0);
            hits += result.indices().iter().filter(|i| exact.contains(i)).count();
        }
        // As with NH, the transformed distances carry a large additive constant, so at a
        // quarter of the data as budget we only require ballpark-of-the-budget recall.
        assert!(
            hits as f64 >= 0.15 * (10 * queries.len()) as f64,
            "FH recall unexpectedly low: {hits}/{}",
            10 * queries.len()
        );
    }

    #[test]
    fn timing_collection_populates_lookup_and_verify() {
        let ps = dataset(1_000, 8);
        let index = FhIndex::build(&ps, FhParams::new(2, 8, 3)).unwrap();
        let q = &generate_queries(&ps, 1, QueryDistribution::DataDifference, 7).unwrap()[0];
        let result = index.search(q, &SearchParams::approximate(5, 300).with_timing());
        assert!(result.stats.time_lookup_ns > 0);
        assert!(result.stats.time_verify_ns > 0);
    }

    #[test]
    fn fh_index_is_heavier_than_tree_indexes() {
        use p2h_balltree::BcTreeBuilder;
        let ps = dataset(3_000, 16);
        let fh = FhIndex::build(&ps, FhParams::new(4, 32, 4)).unwrap();
        let bc = BcTreeBuilder::new(100).build(&ps).unwrap();
        assert!(
            fh.index_size_bytes() > 5 * bc.structure_size_bytes(),
            "FH tables should dwarf the BC-Tree structure: fh={} bc={}",
            fh.index_size_bytes(),
            bc.structure_size_bytes()
        );
    }
}
