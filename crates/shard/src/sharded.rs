//! The sharded index: per-shard fan-out with a deterministic top-k merge.

use std::time::Instant;

use p2h_core::{
    traversal_run, HyperplaneQuery, P2hIndex, QueryScratch, SearchParams, SearchResult,
    SearchStats, VecBuf, GROUP_WIDTH,
};
use p2h_store::LoadedIndex;

use crate::partition::Partitioner;

/// A point set partitioned across several independently built indexes, searchable
/// through the ordinary [`P2hIndex`] trait.
///
/// A query fans out over the shards — sequentially in [`P2hIndex::search_with_scratch`]
/// (one worker, one reused scratch; the batch executor in `p2h-engine` parallelizes
/// over queries), or shard-parallel through the engine's `ShardedExecutor` — and the
/// per-shard top-k lists are merged with the total [`Neighbor`] order. For exact
/// search the merged answer is **bit-identical** (neighbor ids and distance bits) to a
/// single index of the same kind over the unpartitioned points, for every shard count
/// and either [`Partitioner`] (see the crate docs for the argument).
///
/// Shards are stored as [`LoadedIndex`] — the same tagged concrete type the snapshot
/// store restores — so a sharded index moves between memory and the store's
/// shard-group layout without re-wrapping.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<LoadedIndex>,
    /// `id_maps[s][local] = global`; strictly increasing per shard, disjoint cover of
    /// `0..total_len` across shards. Buffer-backed: zero-copy views of the map file
    /// when the group was cold-started under `LoadMode::Mmap`.
    id_maps: Vec<VecBuf<u32>>,
    partitioner: Partitioner,
    build_seed: u64,
    dim: usize,
    total_len: usize,
}

impl ShardedIndex {
    /// Assembles a sharded index from already built shards and their id maps — the
    /// trusting-but-verifying constructor behind the builder and the store load path.
    ///
    /// # Errors
    ///
    /// Returns [`p2h_core::Error::Corrupt`] (never panics) if the parts are
    /// inconsistent: no shards, shard/id-map count or length mismatches, differing
    /// dimensions, id maps that are not strictly increasing, or ids that do not form a
    /// disjoint cover of `0..n`.
    pub fn from_parts(
        shards: Vec<LoadedIndex>,
        id_maps: Vec<VecBuf<u32>>,
        partitioner: Partitioner,
        build_seed: u64,
    ) -> p2h_core::Result<Self> {
        use p2h_core::Error;
        if shards.is_empty() || id_maps.len() != shards.len() {
            return Err(Error::Corrupt(format!(
                "{} shards with {} id maps",
                shards.len(),
                id_maps.len()
            )));
        }
        let dim = shards[0].as_index().dim();
        let total_len: usize = id_maps.iter().map(|ids| ids.len()).sum();
        let mut seen = vec![false; total_len];
        for (ordinal, (shard, ids)) in shards.iter().zip(&id_maps).enumerate() {
            let index = shard.as_index();
            if index.len() != ids.len() || ids.is_empty() {
                return Err(Error::Corrupt(format!(
                    "shard {ordinal} holds {} points but its id map lists {}",
                    index.len(),
                    ids.len()
                )));
            }
            if index.dim() != dim {
                return Err(Error::Corrupt(format!(
                    "shard {ordinal} has dim {}, shard 0 has dim {dim}",
                    index.dim()
                )));
            }
            let mut prev: Option<u32> = None;
            for &id in ids.iter() {
                if prev.is_some_and(|p| p >= id) {
                    return Err(Error::Corrupt(format!(
                        "shard {ordinal} id map is not strictly increasing"
                    )));
                }
                prev = Some(id);
                let id = id as usize;
                if id >= total_len || seen[id] {
                    return Err(Error::Corrupt(format!(
                        "shard {ordinal} id map is not part of a permutation of 0..{total_len}"
                    )));
                }
                seen[id] = true;
            }
        }
        // `seen` is fully covered by construction: every id was in range, none twice,
        // and their count is exactly `total_len`.
        Ok(Self { shards, id_maps, partitioner, build_seed, dim, total_len })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The index serving shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shard_count()`.
    pub fn shard(&self, s: usize) -> &dyn P2hIndex {
        self.shards[s].as_index()
    }

    /// The tagged concrete shards, in ordinal order (what the store persists).
    pub fn shards(&self) -> &[LoadedIndex] {
        &self.shards
    }

    /// The local-position → global-id map of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shard_count()`.
    pub fn id_map(&self, s: usize) -> &[u32] {
        &self.id_maps[s]
    }

    /// All id maps, in shard-ordinal order.
    pub fn id_maps(&self) -> &[VecBuf<u32>] {
        &self.id_maps
    }

    /// The partitioner the points were split with.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// The RNG seed the per-shard indexes were derived from.
    pub fn build_seed(&self) -> u64 {
        self.build_seed
    }

    /// The parameters shard `s` should run for a query with `params`, or `None` when
    /// the shard can be skipped outright (its slice of the candidate budget is empty).
    ///
    /// Exact searches pass through unchanged. A candidate budget `B` is split by the
    /// global-id prefix: shard `s` receives `|{g ∈ shard s : g < B}|` — across shards
    /// these slices sum to `min(B, n)`, and for linear-scan shards the union of
    /// verified points is exactly the `0..B` prefix an unsharded scan verifies.
    pub fn shard_params(&self, s: usize, params: &SearchParams) -> Option<SearchParams> {
        match params.candidate_limit {
            None => Some(params.clone()),
            Some(limit) => {
                let budget = self.id_maps[s].partition_point(|&g| (g as usize) < limit);
                (budget > 0)
                    .then(|| SearchParams { candidate_limit: Some(budget), ..params.clone() })
            }
        }
    }

    /// Searches shard `s` and maps the resulting neighbor ids to global ids, or
    /// returns `None` when the shard's budget slice is empty. The returned list stays
    /// sorted by the total [`Neighbor`] order (the id map is strictly increasing, so
    /// the local order *is* the global order within the shard).
    pub fn search_shard(
        &self,
        s: usize,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> Option<SearchResult> {
        let shard_params = self.shard_params(s, params)?;
        let mut result =
            self.shards[s].as_index().search_with_scratch(query, &shard_params, scratch);
        self.globalize(s, &mut result);
        Some(result)
    }

    /// [`Self::search_shard`] for a whole frame: `queries[i]` under `params[i]`, in that
    /// order, with the same neighbors each would get alone. Each maximal run (up to
    /// [`GROUP_WIDTH`]) of consecutive queries whose shard parameters may share a
    /// traversal ([`SearchParams::shares_traversal_with`]) is answered by one
    /// [`P2hIndex::search_group_with_scratch`] call — a frame of exact queries descends
    /// the shard's tree once — and their work counters are those of the shared order.
    ///
    /// # Panics
    ///
    /// If `queries` and `params` differ in length.
    pub fn search_shard_group(
        &self,
        s: usize,
        queries: &[HyperplaneQuery],
        params: &[&SearchParams],
        scratch: &mut QueryScratch,
    ) -> Vec<Option<SearchResult>> {
        assert_eq!(queries.len(), params.len(), "one SearchParams per query of the frame");
        let sliced: Vec<Option<SearchParams>> =
            params.iter().map(|params| self.shard_params(s, params)).collect();
        let index = self.shards[s].as_index();
        let mut answers = Vec::with_capacity(queries.len());
        let mut run = Vec::with_capacity(GROUP_WIDTH);
        let mut i = 0;
        while i < queries.len() {
            if sliced[i].is_none() {
                answers.push(None);
                i += 1;
                continue;
            }
            let (members, width) = traversal_run(sliced[i..].iter().map_while(Option::as_ref));
            index.search_group_with_scratch(
                &queries[i..i + width],
                &members[..width],
                scratch,
                &mut run,
            );
            assert_eq!(run.len(), width, "a group search answers every member");
            for mut result in run.drain(..) {
                self.globalize(s, &mut result);
                answers.push(Some(result));
            }
            i += width;
        }
        answers
    }

    /// Rewrites shard `s`'s local neighbor positions as global ids.
    fn globalize(&self, s: usize, result: &mut SearchResult) {
        let ids = &self.id_maps[s];
        for neighbor in &mut result.neighbors {
            neighbor.index = ids[neighbor.index] as usize;
        }
    }

    /// Approximate memory of the id maps in bytes.
    fn id_map_bytes(&self) -> usize {
        self.id_maps.iter().map(|m| m.len() * std::mem::size_of::<u32>()).sum()
    }
}

// Promoted to `p2h_core::topk` so the live memtable layering shares the exact same
// merge (bit-identity across fan-out paths is a single-implementation property);
// re-exported here because the shard fan-out is its original home.
pub use p2h_core::merge_topk;

impl P2hIndex for ShardedIndex {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn len(&self) -> usize {
        self.total_len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn index_size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.as_index().index_size_bytes()).sum::<usize>()
            + self.id_map_bytes()
            + std::mem::size_of::<Self>()
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
        let start = Instant::now();
        let mut stats = SearchStats::default();
        let mut lists = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            if let Some(result) = self.search_shard(s, query, params, scratch) {
                stats.merge(&result.stats);
                lists.push(result.neighbors);
            }
        }
        let neighbors = merge_topk(params.k, lists);
        // Per-shard totals were summed by `merge`; report the true wall-clock time of
        // the fan-out + merge instead (it also covers the merge itself).
        stats.time_total_ns = start.elapsed().as_nanos() as u64;
        SearchResult { neighbors, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{LinearScan, Neighbor, PointSet, Scalar};
    use p2h_store::LoadedIndex;

    fn neighbors(raw: &[(usize, Scalar)]) -> Vec<Neighbor> {
        raw.iter().map(|&(i, d)| Neighbor::new(i, d)).collect()
    }

    #[test]
    fn merge_takes_global_topk_with_total_order() {
        let merged = merge_topk(
            3,
            vec![
                neighbors(&[(4, 0.5), (0, 1.0)]),
                neighbors(&[(2, 0.25), (7, 1.0)]),
                neighbors(&[(5, 0.5)]),
            ],
        );
        assert_eq!(merged, neighbors(&[(2, 0.25), (4, 0.5), (5, 0.5)]));
    }

    #[test]
    fn merge_breaks_distance_ties_by_global_id() {
        // Two neighbors with identical distance bits: the smaller global id wins,
        // regardless of which shard list it came from or list order.
        let a = merge_topk(1, vec![neighbors(&[(9, 0.5)]), neighbors(&[(3, 0.5)])]);
        let b = merge_topk(1, vec![neighbors(&[(3, 0.5)]), neighbors(&[(9, 0.5)])]);
        assert_eq!(a, neighbors(&[(3, 0.5)]));
        assert_eq!(a, b);
    }

    #[test]
    fn merge_handles_edge_shapes() {
        assert!(merge_topk(5, vec![]).is_empty());
        assert_eq!(merge_topk(0, vec![neighbors(&[(1, 0.1), (2, 0.2)])]).len(), 1);
        let single = merge_topk(10, vec![neighbors(&[(1, 0.1)])]);
        assert_eq!(single.len(), 1);
    }

    fn shard_from_rows(rows: &[Vec<Scalar>]) -> LoadedIndex {
        LoadedIndex::LinearScan(LinearScan::new(PointSet::augment(rows).unwrap()))
    }

    #[test]
    fn from_parts_validates_structure() {
        let shard0 = || shard_from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let shard1 = || shard_from_rows(&[vec![2.0, 2.0], vec![3.0, 3.0]]);
        let partitioner = Partitioner::Contiguous { shards: 2 };

        let ok = ShardedIndex::from_parts(
            vec![shard0(), shard1()],
            vec![vec![0, 2].into(), vec![1, 3].into()],
            partitioner,
            0,
        )
        .unwrap();
        assert_eq!(ok.len(), 4);
        assert_eq!(ok.dim(), 3);
        assert_eq!(ok.shard_count(), 2);
        assert_eq!(ok.id_map(1), &[1, 3]);
        assert!(ok.index_size_bytes() > 0);
        assert_eq!(ok.name(), "Sharded");

        // Mismatched id-map count.
        assert!(ShardedIndex::from_parts(
            vec![shard0(), shard1()],
            vec![vec![0, 1].into()],
            partitioner,
            0
        )
        .is_err());
        // Wrong per-shard length.
        assert!(ShardedIndex::from_parts(
            vec![shard0(), shard1()],
            vec![vec![0].into(), vec![1, 2, 3].into()],
            partitioner,
            0
        )
        .is_err());
        // Duplicate global id.
        assert!(ShardedIndex::from_parts(
            vec![shard0(), shard1()],
            vec![vec![0, 1].into(), vec![1, 3].into()],
            partitioner,
            0
        )
        .is_err());
        // Out-of-order ids.
        assert!(ShardedIndex::from_parts(
            vec![shard0(), shard1()],
            vec![vec![2, 0].into(), vec![1, 3].into()],
            partitioner,
            0
        )
        .is_err());
        // Out-of-range id.
        assert!(ShardedIndex::from_parts(
            vec![shard0(), shard1()],
            vec![vec![0, 7].into(), vec![1, 3].into()],
            partitioner,
            0
        )
        .is_err());
    }

    #[test]
    fn budget_split_covers_the_global_prefix() {
        let shards = vec![
            shard_from_rows(&[vec![0.0, 0.0], vec![2.0, 0.0], vec![4.0, 0.0]]),
            shard_from_rows(&[vec![1.0, 0.0], vec![3.0, 0.0], vec![5.0, 0.0]]),
        ];
        let sharded = ShardedIndex::from_parts(
            shards,
            vec![vec![0, 2, 4].into(), vec![1, 3, 5].into()],
            Partitioner::Hash { shards: 2 },
            0,
        )
        .unwrap();

        // Budget 3 → shard 0 gets {0, 2} (2 slots), shard 1 gets {1} (1 slot).
        let params = SearchParams::approximate(1, 3);
        assert_eq!(sharded.shard_params(0, &params).unwrap().candidate_limit, Some(2));
        assert_eq!(sharded.shard_params(1, &params).unwrap().candidate_limit, Some(1));
        // Budget 0 skips every shard; unlimited passes through.
        assert!(sharded.shard_params(0, &SearchParams::approximate(1, 0)).is_none());
        assert_eq!(sharded.shard_params(0, &SearchParams::exact(1)).unwrap().candidate_limit, None);
        // A budget beyond n degrades to exact.
        assert_eq!(
            sharded.shard_params(1, &SearchParams::approximate(1, 100)).unwrap().candidate_limit,
            Some(3)
        );
    }
}
