//! Phase-level time profiling (Figure 10 of the paper).

use serde::{Deserialize, Serialize};

use p2h_core::{HyperplaneQuery, P2hIndex, SearchParams};

/// Average per-query time, split into the four phases of Figure 10.
///
/// * `verification_ms` — exact `|⟨x, q⟩|` evaluations of candidates,
/// * `lookup_ms` — hash-table / projection-array probing (zero for the trees),
/// * `bounds_ms` — node-level and point-level lower-bound computation (zero for the
///   hashing methods),
/// * `other_ms` — traversal bookkeeping, heap maintenance, result assembly.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeProfile {
    /// Average candidate-verification time per query (ms).
    pub verification_ms: f64,
    /// Average table/projection lookup time per query (ms).
    pub lookup_ms: f64,
    /// Average lower-bound computation time per query (ms).
    pub bounds_ms: f64,
    /// Average unattributed time per query (ms).
    pub other_ms: f64,
}

impl TimeProfile {
    /// Total average query time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.verification_ms + self.lookup_ms + self.bounds_ms + self.other_ms
    }

    /// The four phases as fractions of the total (summing to 1 unless the total is 0).
    pub fn fractions(&self) -> [f64; 4] {
        let total = self.total_ms();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            self.verification_ms / total,
            self.lookup_ms / total,
            self.bounds_ms / total,
            self.other_ms / total,
        ]
    }
}

/// Profiles an index over a query batch with fine-grained timing enabled, averaging the
/// phase breakdown over all queries.
pub fn time_profile(
    index: &dyn P2hIndex,
    queries: &[HyperplaneQuery],
    k: usize,
    candidate_limit: Option<usize>,
) -> TimeProfile {
    if queries.is_empty() {
        return TimeProfile::default();
    }
    let mut params = SearchParams::exact(k).with_timing();
    params.candidate_limit = candidate_limit;
    let mut total = TimeProfile::default();
    for query in queries {
        let result = index.search(query, &params);
        let stats = result.stats;
        total.verification_ms += stats.time_verify_ns as f64 / 1.0e6;
        total.lookup_ms += stats.time_lookup_ns as f64 / 1.0e6;
        total.bounds_ms += stats.time_bounds_ns as f64 / 1.0e6;
        total.other_ms += stats.time_other_ns() as f64 / 1.0e6;
    }
    let n = queries.len() as f64;
    TimeProfile {
        verification_ms: total.verification_ms / n,
        lookup_ms: total.lookup_ms / n,
        bounds_ms: total.bounds_ms / n,
        other_ms: total.other_ms / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_balltree::BcTreeBuilder;
    use p2h_core::LinearScan;
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    #[test]
    fn fractions_sum_to_one() {
        let p = TimeProfile { verification_ms: 2.0, lookup_ms: 1.0, bounds_ms: 0.5, other_ms: 0.5 };
        assert!((p.total_ms() - 4.0).abs() < 1e-12);
        let f = p.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((f[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_profile_is_safe() {
        let p = TimeProfile::default();
        assert_eq!(p.total_ms(), 0.0);
        assert_eq!(p.fractions(), [0.0; 4]);
        assert_eq!(time_profile(&dummy_index(), &[], 5, None), TimeProfile::default());
    }

    fn dummy_index() -> LinearScan {
        let ps = SyntheticDataset::new(
            "profile-dummy",
            50,
            4,
            DataDistribution::Uniform { scale: 1.0 },
            1,
        )
        .generate()
        .unwrap();
        LinearScan::new(ps)
    }

    #[test]
    fn profiles_real_indexes() {
        let ps = SyntheticDataset::new(
            "profile",
            3_000,
            16,
            DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.0 },
            2,
        )
        .generate()
        .unwrap();
        let queries = generate_queries(&ps, 5, QueryDistribution::DataDifference, 3).unwrap();
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let profile = time_profile(&tree, &queries, 10, None);
        assert!(profile.total_ms() > 0.0);
        // A tree spends time on bounds and verification, none on table lookups.
        assert!(profile.bounds_ms > 0.0);
        assert_eq!(profile.lookup_ms, 0.0);

        let scan = LinearScan::new(ps);
        let profile = time_profile(&scan, &queries, 10, None);
        assert!(profile.verification_ms > 0.0);
        assert_eq!(profile.bounds_ms, 0.0);
    }
}
