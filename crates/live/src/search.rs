//! Layered search: base tier + memtable scan, merged under the total `Neighbor`
//! order so answers are bit-identical to a full rebuild over the same live points.
//!
//! ## Why the layering cannot change a bit
//!
//! The top-k of a point set under the total order `(distance.total_cmp, id)` is a
//! unique set, independent of the order candidates are offered in. The layered path
//! offers exactly the live points a rebuild would contain, with exactly the
//! distances a rebuild would compute:
//!
//! * **Distances** — memtable rows go through [`p2h_core::kernels::abs_dot_tile`],
//!   the same dispatched kernel every index verifies with, bit-identical per row
//!   whichever rows and queries share a call. The base tier is an ordinary exact
//!   index, itself bit-identical to a linear scan over its points.
//! * **Tie-breaks** — base results are reported in base-local positions; the id
//!   file's mapping is strictly increasing, so translating positions to global ids
//!   preserves the order and therefore every accept/reject decision. Memtable rows
//!   are offered under their global ids directly.
//! * **Tombstones** — every query hands the base its tombstone bitset
//!   ([`P2hIndex::search_group_excluding`]). The Ball-Tree (the base compaction
//!   writes) drops a tombstoned point after verifying it and before it reaches a
//!   collector, so the base answers each member's own `k` over its survivors; other
//!   base kinds overfetch by the tombstone count and filter. Memtable strips are
//!   verified under their live-row mask, so a deleted row is never computed at all.
//!
//! The final [`merge_topk`] is the same merge shard fan-out uses.
//!
//! ## Groups
//!
//! Exact queries that may share a traversal
//! ([`SearchParams::shares_traversal_with`]) are answered as a group of up to
//! [`GROUP_WIDTH`]: the base descends once for all of them, and every memtable strip
//! is verified for the whole group in one tile call. A member's neighbors do not
//! depend on its companions.
//!
//! Under a `candidate_limit` budget a query is answered alone. The budget counts
//! surviving points: the base gets the position prefix holding its share, and the
//! memtable the rest, in id order. Over a [`p2h_core::LinearScan`] base that is a
//! rebuilt linear scan's prefix exactly; tree bases spend the budget in tree order, as
//! they do everywhere else.

use std::sync::RwLockReadGuard;
use std::time::Instant;

use p2h_core::{
    kernels, merge_topk, Error, HyperplaneQuery, P2hIndex, QueryScratch, Result, Scalar,
    SearchParams, SearchResult, SearchStats, GROUP_WIDTH, LEAF_STRIP,
};

use crate::index::{LiveIndex, LiveState};

/// One read-locked state of a [`LiveIndex`], searchable as a [`P2hIndex`]
/// ([`LiveView::as_index`]). Every search through the view sees the same live points;
/// inserts, deletes and compaction commits wait until it is dropped.
#[derive(Debug)]
pub struct LiveView<'a> {
    state: RwLockReadGuard<'a, LiveState>,
}

impl LiveView<'_> {
    /// The locked state as an index. Its answers are those of
    /// [`LiveIndex::search_with_scratch`], and a query of the wrong dimension panics,
    /// as it does on every [`P2hIndex`].
    pub fn as_index(&self) -> &dyn P2hIndex {
        &*self.state
    }
}

impl LiveIndex {
    /// Takes the read lock and returns it as a view: hold it for a whole batch so every
    /// query of the batch sees one live state.
    pub fn read_view(&self) -> LiveView<'_> {
        LiveView { state: self.read_state() }
    }

    /// Searches the layered index. Same parameter semantics as
    /// [`p2h_core::P2hIndex::search`]; answers are bit-identical to a full rebuild
    /// containing the same live points.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] when the query dimension differs from the
    /// index's augmented dimension (a checked error here, where the trait-bound
    /// indexes panic — the live tier is reachable from serving paths that must not
    /// take a worker down).
    pub fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> Result<SearchResult> {
        self.search_with_scratch(query, params, &mut QueryScratch::new())
    }

    /// [`LiveIndex::search`] with caller-provided scratch space (allocation-free
    /// steady state).
    pub fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> Result<SearchResult> {
        let state = self.read_state();
        if query.dim() != state.dim {
            return Err(Error::DimensionMismatch { expected: state.dim, actual: query.dim() });
        }
        Ok(state.search_with_scratch(query, params, scratch))
    }

    /// Exhaustive top-`k` (no candidate budget).
    pub fn search_exact(&self, query: &HyperplaneQuery, k: usize) -> Result<SearchResult> {
        self.search(query, &SearchParams::exact(k))
    }
}

impl P2hIndex for LiveState {
    fn name(&self) -> &'static str {
        "Live"
    }

    fn len(&self) -> usize {
        self.live_len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn index_size_bytes(&self) -> usize {
        let base = self.base.as_ref().map_or(0, |base| base.as_index().index_size_bytes());
        base + std::mem::size_of_val(self.base_tombs.words())
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
        let mut out = Vec::with_capacity(1);
        search_layered(self, std::slice::from_ref(query), &[params], scratch, &mut out);
        out.pop().expect("a layered search answers its query")
    }

    fn search_group_with_scratch(
        &self,
        queries: &[HyperplaneQuery],
        params: &[&SearchParams],
        scratch: &mut QueryScratch,
        out: &mut Vec<SearchResult>,
    ) {
        assert_eq!(queries.len(), params.len(), "one SearchParams per group member");
        for (queries, params) in queries.chunks(GROUP_WIDTH).zip(params.chunks(GROUP_WIDTH)) {
            if params[1..].iter().all(|p| params[0].shares_traversal_with(p)) {
                search_layered(self, queries, params, scratch, out);
            } else {
                for (query, params) in queries.iter().zip(params) {
                    search_layered(self, std::slice::from_ref(query), &[params], scratch, out);
                }
            }
        }
    }
}

/// Answers `queries[i]` under `params[i]`, appending to `out`: either one query, or a
/// group of at most [`GROUP_WIDTH`] that may share a traversal (so none is budgeted).
/// A group member's `time_total_ns` is the group's wall time.
fn search_layered(
    state: &LiveState,
    queries: &[HyperplaneQuery],
    params: &[&SearchParams],
    scratch: &mut QueryScratch,
    out: &mut Vec<SearchResult>,
) {
    let start = Instant::now();
    let width = queries.len();
    assert!((1..=GROUP_WIDTH).contains(&width), "a layered search answers 1..=8 queries");
    assert!(queries.iter().all(|q| q.dim() == state.dim), "query dimension must match");
    let budget = params[0].candidate_limit;
    debug_assert!(width == 1 || budget.is_none(), "budgeted queries are answered alone");
    let mut remaining = budget.unwrap_or(usize::MAX);

    let mut base_answers = Vec::with_capacity(width);
    if let Some(base) = &state.base {
        let tombs = &state.base_tombs;
        // Budgets count *surviving* points. A budgeted query (always alone) hands the
        // base the position prefix that holds its first `scan` survivors: each
        // tombstone inside the prefix extends it by one position.
        let limited = budget.map(|limit| {
            let scan = limit.min(state.base_ids.len() - tombs.len());
            remaining -= scan;
            let mut positions = scan;
            for tomb in tombs.iter() {
                if tomb < positions {
                    positions += 1;
                } else {
                    break;
                }
            }
            SearchParams { candidate_limit: Some(positions), ..params[0].clone() }
        });
        let one;
        let base_params = match &limited {
            Some(limited) => {
                one = [limited];
                &one[..]
            }
            None => params,
        };
        base.as_index().search_group_excluding(
            queries,
            base_params,
            tombs.words(),
            scratch,
            &mut base_answers,
        );
        let base_ids: &[u32] = &state.base_ids;
        for answer in &mut base_answers {
            for neighbor in &mut answer.neighbors {
                neighbor.index = base_ids[neighbor.index] as usize;
            }
        }
    }

    // Memtable tier: one strip-scan across every layer in ascending id order, offering
    // live rows under their global ids (identical per-row distances and identical
    // tie-breaks to a rebuilt linear scan — see the module docs). Each strip's live
    // rows are verified for the whole group in one tile call.
    let verify_start = Instant::now();
    scratch.reset_group(params.iter().map(|p| p.k));
    let QueryScratch { group_collectors, tile, .. } = scratch;
    let collectors = &mut group_collectors[..width];
    let coeffs: [&[Scalar]; GROUP_WIDTH] =
        std::array::from_fn(|m| queries[m.min(width - 1)].coeffs());
    let dim = state.dim;
    let mut verified = 0u64;
    'layers: for layer in &state.layers {
        for (strip, &deleted) in layer.tombs.words().iter().enumerate() {
            if remaining == 0 {
                break 'layers;
            }
            let pos = strip * LEAF_STRIP;
            let rows = (layer.rows - pos).min(LEAF_STRIP);
            let mut mask = !deleted & kernels::first_rows(rows);
            if mask.count_ones() as usize > remaining {
                // The budget runs out in this strip: its first `remaining` live rows.
                let mut rest = mask;
                for _ in 0..remaining {
                    kernels::pop_row(&mut rest);
                }
                mask &= !rest;
            }
            if mask == 0 {
                continue;
            }
            let count = mask.count_ones();
            remaining = remaining.saturating_sub(count as usize);
            verified += u64::from(count);
            let flat = &layer.flat[pos * dim..layer.rows * dim];
            kernels::abs_dot_tile(&coeffs[..width], flat, dim, mask, &mut tile[..width]);
            for (collector, distances) in collectors.iter_mut().zip(tile.iter()) {
                let too_far = kernels::mask_gt(&distances[..rows], collector.threshold());
                let mut entering = mask & !too_far;
                while entering != 0 {
                    let row = kernels::pop_row(&mut entering);
                    collector.offer(layer.start_id as usize + pos + row, distances[row]);
                }
            }
        }
    }
    let verify_ns = verify_start.elapsed().as_nanos() as u64;

    let first = out.len();
    let mut base_answers = base_answers.into_iter();
    for (collector, params) in collectors.iter_mut().zip(params) {
        let mut stats = SearchStats::default();
        let mut lists = Vec::with_capacity(2);
        if let Some(answer) = base_answers.next() {
            stats.merge(&answer.stats);
            lists.push(answer.neighbors);
        }
        stats.inner_products += verified;
        stats.candidates_verified += verified;
        stats.time_verify_ns += verify_ns;
        lists.push(collector.take_sorted());
        let merge_start = Instant::now();
        let neighbors = merge_topk(params.k, lists);
        stats.time_merge_ns += merge_start.elapsed().as_nanos() as u64;
        out.push(SearchResult { neighbors, stats });
    }
    // The base tier's total is a slice of this wall time, not an addition to it.
    let time_total_ns = start.elapsed().as_nanos() as u64;
    for answer in &mut out[first..] {
        answer.stats.time_total_ns = time_total_ns;
    }
}
