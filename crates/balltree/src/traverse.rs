//! The one branch-and-bound loop both trees run (Algorithms 3 and 5 of the paper).
//!
//! Ball-Tree and BC-Tree differ in two places only: how the inner products of a node's
//! two child centers are obtained (two O(d) products from one paired matvec, or one
//! product plus Lemma 2's O(1) arithmetic) and which rows of a leaf strip still need
//! their exact distance (all of them, or the survivors of the point-level ball and
//! cone bounds). Those two decisions are a [`TraversalRules`]; everything else — the
//! explicit stack, node-level pruning, branch order, tile verification, the candidate
//! budget, statistics and timing — is [`traverse`], written once.
//!
//! The loop answers a **group** of up to `W` queries in one descent. A stack frame
//! carries the node, the mask of members that have not pruned an ancestor of it, and
//! each member's `⟨q, c⟩`. Every member prunes against its own threshold `λ`; the
//! children are pushed in the order most active members prefer; and at a leaf each
//! strip of [`LEAF_STRIP`] rows is a *tile*: every member still scanning the leaf
//! selects its rows as a bitmask, members that selected the same rows share one
//! [`kernels::abs_dot_tile`] call (each row is loaded once for four of them), and only
//! the rows whose distance can still enter a member's top-k are offered to it — all
//! before the next strip is touched, so the rows are read from memory once per group
//! instead of once per query. A single-query search is the `W = 1` instance of the same
//! code: one member, one vote, no masking left after monomorphisation.
//!
//! Exact answers do not depend on the visit order — pruning is strict (`lb > λ`) and
//! [`TopKCollector::offer`] keeps the `k` smallest neighbors under a total order — so a
//! member's neighbors are bit-identical to searching alone even though the shared order
//! is not the one it would have chosen. Its work counters are those of the shared order.
//! A budgeted answer *does* depend on the order, which is why only exact queries are
//! ever grouped (see [`SearchParams::shares_traversal_with`]).

use std::ops::Range;
use std::time::Instant;

use p2h_core::{
    is_excluded, kernels, BranchPreference, HyperplaneQuery, QueryScratch, Scalar, SearchParams,
    SearchResult, SearchStats, TopKCollector, TraversalFrame, GROUP_WIDTH, LEAF_STRIP,
};

use crate::bound::node_ball_bound;
use crate::node::Node;

/// The arrays of a tree the traversal reads, resolved to plain slices **once per
/// search**: a mapped `VecBuf` pays a dynamic-dispatch slice resolution per deref, which
/// must stay out of the per-node and per-candidate loops.
#[derive(Debug, Clone, Copy)]
pub struct TreeArrays<'a> {
    /// Node arena; node 0 is the root.
    pub nodes: &'a [Node],
    /// Flat center buffer, one `dim`-sized row per node.
    pub centers: &'a [Scalar],
    /// Flat reordered point rows (every node covers a contiguous range).
    pub points: &'a [Scalar],
    /// Reordered position → original point index.
    pub original_ids: &'a [u32],
    /// Dimensionality of the (augmented) points.
    pub dim: usize,
}

impl<'a> TreeArrays<'a> {
    /// The center row of `node`.
    #[inline]
    pub fn center(&self, node: &Node) -> &'a [Scalar] {
        let start = node.center_offset as usize * self.dim;
        &self.centers[start..start + self.dim]
    }
}

/// Which rows of one leaf strip a member still has to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Bit `i` is set iff row `rows.start + i` of the strip survives.
    pub mask: u64,
    /// Whether everything after this strip is pruned too (the member is done with the
    /// leaf).
    pub leaf_done: bool,
}

/// The two decisions in which the trees differ.
pub trait TraversalRules {
    /// What a member precomputes once per visited leaf for [`Self::select`].
    type LeafState: Copy + Default;

    /// `(⟨q, c_left⟩, ⟨q, c_right⟩, O(d) inner products spent)` for the children of an
    /// expanded node, given `family = [node, left, right]` and `ip = ⟨q, c_node⟩`.
    fn child_ips(
        &self,
        tree: &TreeArrays<'_>,
        q: &[Scalar],
        family: [&Node; 3],
        ip: Scalar,
    ) -> (Scalar, Scalar, u64);

    /// Called once per member when it starts scanning leaf `node_id`.
    fn enter_leaf(&self, node_id: u32, ip: Scalar, query_norm: Scalar) -> Self::LeafState;

    /// Selects the rows of strip `rows` (a sub-range of a leaf that ends at `leaf_end`)
    /// whose lower bound does not exceed `lambda`, counting what it prunes in `stats`.
    fn select(
        &self,
        state: &Self::LeafState,
        rows: Range<usize>,
        leaf_end: usize,
        lambda: Scalar,
        stats: &mut SearchStats,
    ) -> Selection;

    /// Whether the point with original index `id`, verified and within reach of a
    /// member's top-k, may be offered to it. Every point may unless the search excludes
    /// some ([`Excluding`]); this default compiles away.
    #[inline]
    fn admits(&self, _id: u32) -> bool {
        true
    }
}

/// Rules `R` with the points whose bit is set in `excluded` kept out of every collector
/// (see [`p2h_core::P2hIndex::search_group_excluding`]). Bounds and verification are
/// `R`'s, so an excluded point costs what it costs `R`; it just never takes a top-k
/// slot, and a member's `λ` is that of its surviving neighbors.
pub struct Excluding<'a, R> {
    /// The tree's own rules.
    pub rules: R,
    /// Bit `i` set = the point with original index `i` is excluded.
    pub excluded: &'a [u64],
}

impl<R: TraversalRules> TraversalRules for Excluding<'_, R> {
    type LeafState = R::LeafState;

    #[inline]
    fn child_ips(
        &self,
        tree: &TreeArrays<'_>,
        q: &[Scalar],
        family: [&Node; 3],
        ip: Scalar,
    ) -> (Scalar, Scalar, u64) {
        self.rules.child_ips(tree, q, family, ip)
    }

    #[inline]
    fn enter_leaf(&self, node_id: u32, ip: Scalar, query_norm: Scalar) -> Self::LeafState {
        self.rules.enter_leaf(node_id, ip, query_norm)
    }

    #[inline]
    fn select(
        &self,
        state: &Self::LeafState,
        rows: Range<usize>,
        leaf_end: usize,
        lambda: Scalar,
        stats: &mut SearchStats,
    ) -> Selection {
        self.rules.select(state, rows, leaf_end, lambda, stats)
    }

    #[inline]
    fn admits(&self, id: u32) -> bool {
        !is_excluded(self.excluded, id as usize)
    }
}

/// One query of a group, as the loop reads it.
#[derive(Debug, Clone, Copy)]
struct Member<'a> {
    q: &'a [Scalar],
    norm: Scalar,
    /// Most candidates this member may verify (`u64::MAX` when exact).
    limit: u64,
}

impl<'a> Member<'a> {
    fn new(tree: &TreeArrays<'_>, query: &'a HyperplaneQuery, params: &SearchParams) -> Self {
        assert_eq!(
            query.dim(),
            tree.dim,
            "query dimension must match the augmented data dimension"
        );
        Self {
            q: query.coeffs(),
            norm: query.norm(),
            limit: params.candidate_limit.map_or(u64::MAX, |c| c as u64),
        }
    }
}

/// The members of `mask`, lowest first.
#[inline]
fn members<const W: usize>(mask: u8) -> impl Iterator<Item = usize> {
    (0..W).filter(move |m| mask >> m & 1 == 1)
}

/// Adds the time since `timer` started (when phase timing is on) to `slot`.
#[inline]
fn charge(timer: Option<Instant>, slot: &mut u64) {
    if let Some(t) = timer {
        *slot += t.elapsed().as_nanos() as u64;
    }
}

/// Runs the shared depth-first branch-and-bound for `group` (at most `W` members, one
/// collector each) and returns every member's statistics (`time_total_ns` left at 0).
///
/// `timing` splits a member's time into bounds and verification; it is only meaningful
/// for a single member, since a group's clock reads would be charged to whoever was
/// being served at the time.
#[allow(clippy::too_many_arguments)]
fn traverse<const W: usize, R: TraversalRules>(
    tree: &TreeArrays<'_>,
    rules: &R,
    group: &[Member<'_>],
    preference: BranchPreference,
    timing: bool,
    collectors: &mut [TopKCollector],
    stack: &mut Vec<TraversalFrame<W>>,
    tile: &mut [[Scalar; LEAF_STRIP]],
) -> [SearchStats; W] {
    let width = group.len();
    assert!((1..=W).contains(&width) && collectors.len() >= width && W <= u8::BITS as usize);
    assert!(tile.len() >= width, "one tile row per member");
    let everyone = u8::MAX >> (u8::BITS as usize - width);
    let dim = tree.dim;
    let mut stats = [SearchStats::default(); W];
    // Members whose candidate budget ran out: they leave every frame still stacked.
    let mut finished = 0u8;

    let root_center = tree.center(&tree.nodes[0]);
    let mut root_ips = [0.0; W];
    for m in 0..width {
        let timer = timing.then(Instant::now);
        root_ips[m] = kernels::dot(group[m].q, root_center);
        stats[m].inner_products += 1;
        charge(timer, &mut stats[m].time_bounds_ns);
    }
    stack.push(TraversalFrame { node: 0, active: everyone, ips: root_ips });

    // Popping the preferred child first reproduces the recursive visit order, and the
    // node-level bound is evaluated with each member's threshold current at pop time —
    // the same moment the recursion would check it.
    while let Some(frame) = stack.pop() {
        let node = &tree.nodes[frame.node as usize];
        let mut active = frame.active & !finished;
        for m in members::<W>(active) {
            stats[m].nodes_visited += 1;
            let lb = node_ball_bound(frame.ips[m].abs(), group[m].norm, node.radius);
            if lb > collectors[m].threshold() {
                stats[m].pruned_subtrees += 1;
                active &= !(1 << m);
            }
        }
        if active == 0 {
            continue;
        }

        if node.is_leaf() {
            let mut states = [R::LeafState::default(); W];
            for m in members::<W>(active) {
                stats[m].leaves_visited += 1;
                let timer = timing.then(Instant::now);
                states[m] = rules.enter_leaf(frame.node, frame.ips[m], group[m].norm);
                charge(timer, &mut stats[m].time_bounds_ns);
            }
            // Strip-major: every member still scanning the leaf is served from a strip
            // before the next strip is touched.
            let end = node.end as usize;
            let mut pos = node.start as usize;
            let mut scanning = active;
            while pos < end && scanning != 0 {
                let strip_end = end.min(pos + LEAF_STRIP);

                // Pass 1: each member's rows, from its own bounds against its own
                // strip-start `λ`, cut to what is left of its budget.
                let mut masks = [0u64; W];
                let mut selected = 0u8;
                for m in members::<W>(scanning) {
                    let tally = &mut stats[m];
                    let budget = group[m].limit.saturating_sub(tally.candidates_verified);
                    if budget == 0 {
                        finished |= 1 << m;
                        scanning &= !(1 << m);
                        continue;
                    }
                    let timer = timing.then(Instant::now);
                    let lambda = collectors[m].threshold();
                    let selection = rules.select(&states[m], pos..strip_end, end, lambda, tally);
                    let mut mask = selection.mask;
                    if u64::from(mask.count_ones()) > budget {
                        // The budget runs out mid-strip: the first `budget` rows only.
                        let mut rest = mask;
                        for _ in 0..budget {
                            kernels::pop_row(&mut rest);
                        }
                        mask &= !rest;
                        finished |= 1 << m;
                        scanning &= !(1 << m);
                    } else if selection.leaf_done {
                        scanning &= !(1 << m);
                    }
                    charge(timer, &mut tally.time_bounds_ns);
                    if mask != 0 {
                        masks[m] = mask;
                        selected |= 1 << m;
                    }
                }

                // Pass 2: one tile call per class of members that selected the same
                // rows — the whole group where the bounds cannot prune. The kernel is
                // handed the rest of the leaf, to prefetch the next strip from.
                let rows = &tree.points[pos * dim..end * dim];
                let ids = &tree.original_ids[pos..strip_end];
                while selected != 0 {
                    let mask = masks[selected.trailing_zeros() as usize];
                    let mut class = [0usize; W];
                    let mut class_q = [group[0].q; W];
                    let mut n = 0;
                    for m in members::<W>(selected) {
                        if masks[m] == mask {
                            (class[n], class_q[n]) = (m, group[m].q);
                            n += 1;
                            selected &= !(1 << m);
                        }
                    }
                    let timer = timing.then(Instant::now);
                    kernels::abs_dot_tile(&class_q[..n], rows, dim, mask, &mut tile[..n]);

                    // Pass 3: only rows that can still enter a member's top-k reach
                    // `offer` (a `λ` gone stale within the strip lets more through,
                    // and `offer` decides those as it always did), and only if the
                    // rules admit them.
                    let verified = u64::from(mask.count_ones());
                    for (&m, distances) in class[..n].iter().zip(tile.iter()) {
                        let collector = &mut collectors[m];
                        let too_far =
                            kernels::mask_gt(&distances[..ids.len()], collector.threshold());
                        let mut entering = mask & !too_far;
                        while entering != 0 {
                            let row = kernels::pop_row(&mut entering);
                            if rules.admits(ids[row]) {
                                collector.offer(ids[row] as usize, distances[row]);
                            }
                        }
                        stats[m].inner_products += verified;
                        stats[m].candidates_verified += verified;
                        charge(timer, &mut stats[m].time_verify_ns);
                    }
                }
                pos = strip_end;
            }
            if finished == everyone {
                break;
            }
            continue;
        }

        // The child center inner products are computed once here and ride on the stack
        // to the child visits.
        let left = &tree.nodes[node.left as usize];
        let right = &tree.nodes[node.right as usize];
        let (mut ips_left, mut ips_right) = ([0.0; W], [0.0; W]);
        let mut votes_left = 0;
        for m in members::<W>(active) {
            let timer = timing.then(Instant::now);
            let (ip_left, ip_right, spent) =
                rules.child_ips(tree, group[m].q, [node, left, right], frame.ips[m]);
            stats[m].inner_products += spent;
            charge(timer, &mut stats[m].time_bounds_ns);
            (ips_left[m], ips_right[m]) = (ip_left, ip_right);
            let prefers_left = match preference {
                BranchPreference::Center => ip_left.abs() < ip_right.abs(),
                BranchPreference::LowerBound => {
                    node_ball_bound(ip_left.abs(), group[m].norm, left.radius)
                        < node_ball_bound(ip_right.abs(), group[m].norm, right.radius)
                }
            };
            votes_left += u32::from(prefers_left);
        }
        // Majority vote; a lone member simply gets its own preference. Push the other
        // child first so the preferred one pops first.
        let (first, second) = if 2 * votes_left > active.count_ones() {
            ((node.left, ips_left), (node.right, ips_right))
        } else {
            ((node.right, ips_right), (node.left, ips_left))
        };
        stack.push(TraversalFrame { node: second.0, active, ips: second.1 });
        stack.push(TraversalFrame { node: first.0, active, ips: first.1 });
    }
    stats
}

/// Answers one query: the `W = 1` instance of the shared loop. This is what both trees'
/// `search_with_scratch` call.
pub fn search_one<R: TraversalRules>(
    tree: &TreeArrays<'_>,
    rules: &R,
    query: &HyperplaneQuery,
    params: &SearchParams,
    scratch: &mut QueryScratch,
) -> SearchResult {
    let start = Instant::now();
    let member = Member::new(tree, query, params);
    scratch.reset(params.k);
    let QueryScratch { collector, stack, tile, .. } = scratch;
    let [mut stats] = traverse::<1, R>(
        tree,
        rules,
        &[member],
        params.branch_preference,
        params.collect_timing,
        std::slice::from_mut(collector),
        stack,
        tile,
    );
    stats.time_total_ns = start.elapsed().as_nanos() as u64;
    SearchResult { neighbors: collector.take_sorted(), stats }
}

/// Answers `queries[i]` under `params[i]`, appending to `out`: runs of up to
/// [`GROUP_WIDTH`] members that may share a traversal descend together, anything else
/// is answered alone. This is what both trees' `search_group_with_scratch` call.
pub fn search_group<R: TraversalRules>(
    tree: &TreeArrays<'_>,
    rules: &R,
    queries: &[HyperplaneQuery],
    params: &[&SearchParams],
    scratch: &mut QueryScratch,
    out: &mut Vec<SearchResult>,
) {
    assert_eq!(queries.len(), params.len(), "one SearchParams per group member");
    for (queries, params) in queries.chunks(GROUP_WIDTH).zip(params.chunks(GROUP_WIDTH)) {
        let width = queries.len();
        if width < 2 || !params[1..].iter().all(|p| params[0].shares_traversal_with(p)) {
            for (query, params) in queries.iter().zip(params) {
                out.push(search_one(tree, rules, query, params, scratch));
            }
            continue;
        }

        let start = Instant::now();
        scratch.reset_group(params.iter().map(|p| p.k));
        let QueryScratch { group_collectors, group_stack, group_coeffs, tile, .. } = scratch;
        // The tile kernel streams every member's coefficients against every row it
        // verifies: give each a cache-line-aligned copy for the whole descent.
        group_coeffs.stage(tree.dim, queries.iter().map(HyperplaneQuery::coeffs));
        // (Slots past `width` repeat the last member and are never read.)
        let group: [Member<'_>; GROUP_WIDTH] = std::array::from_fn(|slot| {
            let m = slot.min(width - 1);
            Member { q: group_coeffs.member(m), ..Member::new(tree, &queries[m], params[m]) }
        });
        let stats = traverse::<GROUP_WIDTH, R>(
            tree,
            rules,
            &group[..width],
            params[0].branch_preference,
            false,
            group_collectors,
            group_stack,
            tile,
        );
        let time_total_ns = start.elapsed().as_nanos() as u64;
        for (collector, stats) in group_collectors.iter_mut().zip(&stats[..width]) {
            let stats = SearchStats { time_total_ns, ..*stats };
            out.push(SearchResult { neighbors: collector.take_sorted(), stats });
        }
    }
}
