//! Reusable per-query working memory for allocation-free search paths.

use crate::{Neighbor, Scalar, TopKCollector};

/// Number of rows a leaf scan processes per strip: one machine word, so the rows a
/// member still has to verify are a `u64` bitmask ([`crate::kernels::mask_gt`],
/// [`crate::kernels::abs_dot_tile`]). Leaves larger than this are simply scanned in
/// several strips.
pub const LEAF_STRIP: usize = 64;
const _: () = assert!(LEAF_STRIP == u64::BITS as usize);

/// Most queries that share one tree traversal (see
/// [`crate::P2hIndex::search_group_with_scratch`]). Eight members keep a stack frame
/// under one cache line and the member set in a `u8` mask; the sizing behind it is in
/// EXPERIMENTS.md (PR 12).
pub const GROUP_WIDTH: usize = 8;
const _: () = assert!(GROUP_WIDTH <= u8::BITS as usize);

/// One entry of the explicit traversal stack: a node still to be visited, the group
/// members (bit `m` = member `m`) that have not pruned an ancestor of it, and each
/// member's `⟨q_m, center⟩`. A single-query search is the `W = 1` instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalFrame<const W: usize> {
    /// Arena id of the node.
    pub node: u32,
    /// Members descending into the node.
    pub active: u8,
    /// `⟨q_m, center⟩` per member; entries of inactive members are unspecified.
    pub ips: [Scalar; W],
}

/// Bytes per cache line on every target the kernels have a SIMD backend for.
const CACHE_LINE: usize = 64;
/// Scalars per cache line.
const LINE: usize = CACHE_LINE / std::mem::size_of::<Scalar>();

/// The coefficient vectors of a group's members, copied once per group search so that
/// each starts on a cache-line boundary: the tile kernel streams up to [`GROUP_WIDTH`]
/// of them against every row, and a 32-byte load that straddles two lines costs two.
#[derive(Debug, Clone, Default)]
pub struct GroupCoeffs {
    buf: Vec<Scalar>,
    /// Position in `buf` of the first cache-line boundary.
    origin: usize,
    /// Distance between two members' coefficients (`dim` rounded up to whole lines).
    stride: usize,
    dim: usize,
}

impl GroupCoeffs {
    /// Copies the members' coefficient vectors (`dim` scalars each) in, keeping the
    /// allocation of earlier groups when it is large enough.
    ///
    /// # Panics
    ///
    /// If a member does not have `dim` coefficients.
    pub fn stage<'q>(&mut self, dim: usize, members: impl ExactSizeIterator<Item = &'q [Scalar]>) {
        self.dim = dim;
        self.stride = dim.next_multiple_of(LINE);
        self.buf.resize(members.len() * self.stride + LINE, 0.0);
        // `align_offset` counts in scalars and may decline (`usize::MAX`); the alignment
        // is a speed-up only, so any in-bounds origin is correct.
        self.origin = self.buf.as_ptr().align_offset(CACHE_LINE).min(LINE);
        for (m, coeffs) in members.enumerate() {
            let start = self.origin + m * self.stride;
            self.buf[start..start + dim].copy_from_slice(coeffs);
        }
    }

    /// The staged coefficients of member `m`.
    #[inline]
    pub fn member(&self, m: usize) -> &[Scalar] {
        let start = self.origin + m * self.stride;
        &self.buf[start..start + self.dim]
    }
}

/// Scratch space threaded through a search so the steady-state query path performs no
/// heap allocation.
///
/// A `QueryScratch` owns everything a tree search needs to allocate otherwise: the
/// [`TopKCollector`]'s heap storage, the explicit traversal stack that replaces
/// recursion and the distance tile the leaf kernels write into, plus one collector per
/// member, a wider stack and the staged coefficients for group searches. Create one per
/// worker thread and pass
/// it to [`crate::P2hIndex::search_with_scratch`] for every query; the buffers are
/// reset (not freed) between queries, so after the first few queries warm the collector
/// heap and the stack, thousands of subsequent queries allocate nothing beyond the
/// k-element result vector that every [`crate::SearchResult`] hands to the caller.
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// Bounded top-k heap, reused across queries via [`TopKCollector::reset`].
    pub collector: TopKCollector,
    /// Explicit traversal stack of a single-query search, replacing recursion.
    pub stack: Vec<TraversalFrame<1>>,
    /// Distances of the current strip of leaf rows, one row of the tile per query the
    /// kernel call serves ([`crate::kernels::abs_dot_tile`]); a scan of one query uses
    /// the first.
    pub tile: [[Scalar; LEAF_STRIP]; GROUP_WIDTH],
    /// One top-k heap per member of a group search; empty until the first one.
    pub group_collectors: Vec<TopKCollector>,
    /// Explicit traversal stack of a group search; empty until the first one.
    pub group_stack: Vec<TraversalFrame<GROUP_WIDTH>>,
    /// Cache-line-aligned copies of a group's coefficients; empty until the first one.
    pub group_coeffs: GroupCoeffs,
}

impl QueryScratch {
    /// Creates scratch sized for typical trees (stack capacity covers depth ~64 without
    /// regrowth; deeper trees grow it once and keep the larger buffer).
    pub fn new() -> Self {
        Self {
            collector: TopKCollector::new(1),
            stack: Vec::with_capacity(64),
            tile: [[0.0; LEAF_STRIP]; GROUP_WIDTH],
            group_collectors: Vec::new(),
            group_stack: Vec::new(),
            group_coeffs: GroupCoeffs::default(),
        }
    }

    /// Prepares the scratch for a fresh query with the given `k`: clears the collector
    /// and the stack while keeping every allocation.
    pub fn reset(&mut self, k: usize) {
        self.collector.reset(k);
        self.stack.clear();
    }

    /// Prepares the scratch for a group search whose members ask for `ks` neighbors:
    /// one cleared collector per member and an empty group stack, keeping every
    /// allocation made by earlier groups.
    pub fn reset_group(&mut self, ks: impl IntoIterator<Item = usize>) {
        for (member, k) in ks.into_iter().enumerate() {
            match self.group_collectors.get_mut(member) {
                Some(collector) => collector.reset(k),
                None => self.group_collectors.push(TopKCollector::new(k)),
            }
        }
        self.group_stack.clear();
        if self.group_stack.capacity() == 0 {
            self.group_stack.reserve(64);
        }
    }

    /// Convenience for assertions and examples: the current top-k as a sorted vector
    /// without consuming the scratch.
    pub fn current_topk(&self) -> Vec<Neighbor> {
        self.collector.to_sorted_vec()
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_preserves_capacity() {
        let mut scratch = QueryScratch::new();
        scratch.collector.reset(8);
        for i in 0..20 {
            scratch.collector.offer(i, i as Scalar);
        }
        scratch.stack.extend((0..100).map(|node| TraversalFrame { node, active: 1, ips: [0.5] }));
        let stack_cap = scratch.stack.capacity();
        scratch.reset(8);
        assert!(scratch.stack.is_empty());
        assert_eq!(scratch.stack.capacity(), stack_cap);
        assert!(scratch.collector.is_empty());
        assert_eq!(scratch.collector.k(), 8);
        assert!(scratch.current_topk().is_empty());
    }

    #[test]
    fn reset_group_grows_once_and_then_reuses() {
        let mut scratch = QueryScratch::new();
        scratch.reset_group([3, 5, 1]);
        assert_eq!(scratch.group_collectors.len(), 3);
        assert_eq!(scratch.group_collectors[1].k(), 5);
        scratch.group_collectors[0].offer(9, 1.0);
        scratch.group_stack.push(TraversalFrame {
            node: 0,
            active: 0b111,
            ips: [0.0; GROUP_WIDTH],
        });
        let stack_cap = scratch.group_stack.capacity();
        // A narrower group reuses the first collectors and leaves the rest alone.
        scratch.reset_group([2, 2]);
        assert_eq!(scratch.group_collectors.len(), 3);
        assert!(scratch.group_collectors[0].is_empty());
        assert_eq!(scratch.group_collectors[0].k(), 2);
        assert!(scratch.group_stack.is_empty());
        assert_eq!(scratch.group_stack.capacity(), stack_cap);
    }

    #[test]
    fn default_matches_new() {
        let a = QueryScratch::default();
        assert_eq!(a.collector.k(), 1);
        assert_eq!(a.tile.len(), GROUP_WIDTH);
    }

    #[test]
    fn staged_coefficients_are_copies_on_cache_line_boundaries() {
        let mut coeffs = GroupCoeffs::default();
        for dim in [1, 16, 17, 65, 129] {
            let members: Vec<Vec<Scalar>> =
                (0..5).map(|m| (0..dim).map(|j| (m * 1000 + j) as Scalar).collect()).collect();
            coeffs.stage(dim, members.iter().map(Vec::as_slice));
            for (m, member) in members.iter().enumerate() {
                assert_eq!(coeffs.member(m), &member[..], "dim {dim}, member {m}");
                assert_eq!(
                    coeffs.member(m).as_ptr() as usize % CACHE_LINE,
                    0,
                    "dim {dim}, member {m}"
                );
            }
        }
    }
}
