//! Building a [`ShardedIndex`]: partition the points, build one index per shard.

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_core::{LinearScan, PointSet, Result};
use p2h_store::LoadedIndex;

use crate::partition::Partitioner;
use crate::sharded::ShardedIndex;

/// Which index type to build inside every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardIndexKind {
    /// Exhaustive scan per shard — no build cost, exact answers, the baseline.
    LinearScan,
    /// A Ball-Tree per shard.
    BallTree {
        /// Maximum leaf size `N0` of each shard's tree.
        leaf_size: usize,
    },
    /// A BC-Tree per shard.
    BcTree {
        /// Maximum leaf size `N0` of each shard's tree.
        leaf_size: usize,
    },
}

/// Builds a [`ShardedIndex`]: the [`Partitioner`] splits the point set, then one index
/// of the configured [`ShardIndexKind`] is built per shard.
///
/// Shard `s` is built with the derived seed `seed + s`, so the whole sharded build is
/// deterministic for a given `(partitioner, kind, seed)` regardless of how it is
/// executed — and each shard still gets an independent random stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedIndexBuilder {
    /// How the points are split across shards.
    pub partitioner: Partitioner,
    /// The index type built inside each shard.
    pub kind: ShardIndexKind,
    /// Base RNG seed; shard `s` uses `seed + s`.
    pub seed: u64,
}

impl ShardedIndexBuilder {
    /// Creates a builder with the given partitioner and per-shard index kind (seed 0).
    pub fn new(partitioner: Partitioner, kind: ShardIndexKind) -> Self {
        Self { partitioner, kind, seed: 0 }
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the sharded index on the calling thread: `build_parallel(points, 1)`.
    ///
    /// # Errors
    ///
    /// Returns the partitioner's errors (zero shards, empty point set) and any
    /// per-shard build error.
    pub fn build(&self, points: &PointSet) -> Result<ShardedIndex> {
        self.build_parallel(points, 1)
    }

    /// Builds the sharded index, constructing every shard's tree over `threads` worker
    /// threads (`0` = one per available CPU). Shards themselves are built one after
    /// another — the parallelism lives inside each tree build, so peak memory stays at
    /// one shard's working set. The trees are identical for every thread count.
    ///
    /// # Errors
    ///
    /// Same errors as [`ShardedIndexBuilder::build`].
    pub fn build_parallel(&self, points: &PointSet, threads: usize) -> Result<ShardedIndex> {
        let id_maps = self.partitioner.assign(points.len())?;
        let dim = points.dim();
        let mut shards = Vec::with_capacity(id_maps.len());
        for (ordinal, ids) in id_maps.iter().enumerate() {
            // Gather the shard's rows into a dense point set (row order = id order, so
            // local positions stay monotone in global id — the merge invariant).
            let mut flat = Vec::with_capacity(ids.len() * dim);
            for &id in ids {
                flat.extend_from_slice(points.point(id as usize));
            }
            let shard_points = PointSet::from_flat(dim, flat)?;
            let seed = self.seed.wrapping_add(ordinal as u64);
            let shard = match self.kind {
                ShardIndexKind::LinearScan => {
                    LoadedIndex::LinearScan(LinearScan::new(shard_points))
                }
                ShardIndexKind::BallTree { leaf_size } => LoadedIndex::BallTree(
                    BallTreeBuilder::new(leaf_size)
                        .with_seed(seed)
                        .build_parallel(&shard_points, threads)?,
                ),
                ShardIndexKind::BcTree { leaf_size } => LoadedIndex::BcTree(
                    BcTreeBuilder::new(leaf_size)
                        .with_seed(seed)
                        .build_parallel(&shard_points, threads)?,
                ),
            };
            shards.push(shard);
        }
        let id_maps = id_maps.into_iter().map(Into::into).collect();
        ShardedIndex::from_parts(shards, id_maps, self.partitioner, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{P2hIndex, Scalar};

    fn points(n: usize) -> PointSet {
        let rows: Vec<Vec<Scalar>> =
            (0..n).map(|i| vec![(i % 13) as Scalar * 0.7, (i % 7) as Scalar - 3.0]).collect();
        PointSet::augment(&rows).unwrap()
    }

    #[test]
    fn builds_every_kind_over_every_partitioner() {
        let ps = points(300);
        for partitioner in [Partitioner::Contiguous { shards: 4 }, Partitioner::Hash { shards: 4 }]
        {
            for kind in [
                ShardIndexKind::LinearScan,
                ShardIndexKind::BallTree { leaf_size: 16 },
                ShardIndexKind::BcTree { leaf_size: 16 },
            ] {
                let sharded =
                    ShardedIndexBuilder::new(partitioner, kind).with_seed(3).build(&ps).unwrap();
                assert_eq!(sharded.len(), 300);
                assert_eq!(sharded.dim(), 3);
                assert_eq!(sharded.shard_count(), 4);
                assert_eq!(sharded.build_seed(), 3);
                assert_eq!(sharded.partitioner(), partitioner);
            }
        }
    }

    #[test]
    fn shard_points_follow_the_id_map() {
        let ps = points(50);
        let sharded =
            ShardedIndexBuilder::new(Partitioner::Hash { shards: 3 }, ShardIndexKind::LinearScan)
                .build(&ps)
                .unwrap();
        for s in 0..sharded.shard_count() {
            let p2h_store::LoadedIndex::LinearScan(scan) = &sharded.shards()[s] else {
                panic!("expected linear-scan shards")
            };
            for (local, &global) in sharded.id_map(s).iter().enumerate() {
                assert_eq!(scan.points().point(local), ps.point(global as usize));
            }
        }
    }

    #[test]
    fn more_shards_than_points_is_clamped() {
        let ps = points(3);
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Contiguous { shards: 10 },
            ShardIndexKind::LinearScan,
        )
        .build(&ps)
        .unwrap();
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.len(), 3);
    }

    #[test]
    fn zero_shards_is_an_error() {
        let ps = points(10);
        assert!(ShardedIndexBuilder::new(
            Partitioner::Contiguous { shards: 0 },
            ShardIndexKind::LinearScan
        )
        .build(&ps)
        .is_err());
    }
}
