//! Reusable per-query working memory for allocation-free search paths.

use crate::{Neighbor, Scalar, TopKCollector};

/// Number of rows a blocked leaf scan processes per strip. Chosen to keep the strip and
/// survivor buffers comfortably inside one cache line's worth of bookkeeping while still
/// amortizing query loads across many rows; leaves larger than this are simply scanned
/// in several strips.
pub const LEAF_STRIP: usize = 64;

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

/// Scratch space threaded through a search so the steady-state query path performs no
/// heap allocation.
///
/// A `QueryScratch` owns everything a tree search needs to allocate otherwise: the
/// [`TopKCollector`]'s heap storage, the explicit traversal stack that replaces
/// recursion, the distance strip the blocked kernels write into, and the survivor index
/// buffer the BC-Tree's point-level pruning uses, plus one collector per member and a
/// wider stack for group searches. Create one per worker thread and pass
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
    /// Distances of the current strip of leaf rows, written by the blocked kernels.
    pub strip: [Scalar; LEAF_STRIP],
    /// Reordered positions within the current strip that survived point-level pruning.
    pub keep: [u32; LEAF_STRIP],
    /// One top-k heap per member of a group search; empty until the first one.
    pub group_collectors: Vec<TopKCollector>,
    /// Explicit traversal stack of a group search; empty until the first one.
    pub group_stack: Vec<TraversalFrame<GROUP_WIDTH>>,
}

impl QueryScratch {
    /// Creates scratch sized for typical trees (stack capacity covers depth ~64 without
    /// regrowth; deeper trees grow it once and keep the larger buffer).
    pub fn new() -> Self {
        Self {
            collector: TopKCollector::new(1),
            stack: Vec::with_capacity(64),
            strip: [0.0; LEAF_STRIP],
            keep: [0; LEAF_STRIP],
            group_collectors: Vec::new(),
            group_stack: Vec::new(),
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
        assert_eq!(a.strip.len(), LEAF_STRIP);
        assert_eq!(a.keep.len(), LEAF_STRIP);
    }
}
