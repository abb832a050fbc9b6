//! The one branch-and-bound loop both trees run (Algorithms 3 and 5 of the paper).
//!
//! Ball-Tree and BC-Tree differ in two places only: how the inner products of a node's
//! two child centers are obtained (two O(d) products from one paired matvec, or one
//! product plus Lemma 2's O(1) arithmetic) and which rows of a leaf strip still need
//! their exact distance (all of them, or the survivors of the point-level ball and
//! cone bounds). Those two decisions are a [`TraversalRules`]; everything else — the
//! explicit stack, node-level pruning, branch order, blocked verification, the candidate
//! budget, statistics and timing — is [`traverse`], written once.
//!
//! The loop answers a **group** of up to `W` queries in one descent. A stack frame
//! carries the node, the mask of members that have not pruned an ancestor of it, and
//! each member's `⟨q, c⟩`. Every member prunes against its own threshold `λ`; the
//! children are pushed in the order most active members prefer; and at a leaf each
//! strip of [`LEAF_STRIP`] rows is verified for every member still scanning the leaf
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
    kernels, BranchPreference, HyperplaneQuery, QueryScratch, Scalar, SearchParams, SearchResult,
    SearchStats, TopKCollector, TraversalFrame, GROUP_WIDTH, LEAF_STRIP,
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
    /// Number of surviving rows.
    pub kept: usize,
    /// Whether the survivors are the first `kept` rows of the strip. They are then
    /// verified as one blocked matvec and `keep` is not read; otherwise `keep[..kept]`
    /// holds their positions and each is verified with the single-row kernel
    /// (bit-identical per row either way).
    pub contiguous: bool,
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
        keep: &mut [u32; LEAF_STRIP],
        stats: &mut SearchStats,
    ) -> Selection;
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
    strip: &mut [Scalar; LEAF_STRIP],
    keep: &mut [u32; LEAF_STRIP],
) -> [SearchStats; W] {
    let width = group.len();
    assert!((1..=W).contains(&width) && collectors.len() >= width && W <= u8::BITS as usize);
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
            // Strip-major: every member still scanning the leaf sees a strip (its own
            // bounds against its own strip-start `λ`, then the blocked kernels) before
            // the next strip is touched.
            let end = node.end as usize;
            let mut pos = node.start as usize;
            let mut scanning = active;
            while pos < end && scanning != 0 {
                let strip_end = end.min(pos + LEAF_STRIP);
                for m in members::<W>(scanning) {
                    let member = &group[m];
                    let (tally, collector) = (&mut stats[m], &mut collectors[m]);
                    let budget = member.limit.saturating_sub(tally.candidates_verified);
                    if budget == 0 {
                        finished |= 1 << m;
                        scanning &= !(1 << m);
                        continue;
                    }

                    let timer = timing.then(Instant::now);
                    let selection = rules.select(
                        &states[m],
                        pos..strip_end,
                        end,
                        collector.threshold(),
                        keep,
                        tally,
                    );
                    charge(timer, &mut tally.time_bounds_ns);

                    let take = selection.kept.min(usize::try_from(budget).unwrap_or(usize::MAX));
                    let timer = timing.then(Instant::now);
                    if selection.contiguous {
                        let rows = &tree.points[pos * dim..(pos + take) * dim];
                        kernels::abs_dot_block(member.q, rows, dim, &mut strip[..take]);
                        for (i, &distance) in strip[..take].iter().enumerate() {
                            collector.offer(tree.original_ids[pos + i] as usize, distance);
                        }
                    } else {
                        for &p in &keep[..take] {
                            let p = p as usize;
                            let distance =
                                kernels::abs_dot(&tree.points[p * dim..(p + 1) * dim], member.q);
                            collector.offer(tree.original_ids[p] as usize, distance);
                        }
                    }
                    tally.inner_products += take as u64;
                    tally.candidates_verified += take as u64;
                    charge(timer, &mut tally.time_verify_ns);

                    if take < selection.kept {
                        finished |= 1 << m; // The budget ran out mid-strip.
                        scanning &= !(1 << m);
                    } else if selection.leaf_done {
                        scanning &= !(1 << m);
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
    let QueryScratch { collector, stack, strip, keep, .. } = scratch;
    let [mut stats] = traverse::<1, R>(
        tree,
        rules,
        &[member],
        params.branch_preference,
        params.collect_timing,
        std::slice::from_mut(collector),
        stack,
        strip,
        keep,
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
        let mut group = [Member::new(tree, &queries[0], params[0]); GROUP_WIDTH];
        for m in 1..width {
            group[m] = Member::new(tree, &queries[m], params[m]);
        }
        scratch.reset_group(params.iter().map(|p| p.k));
        let QueryScratch { group_collectors, group_stack, strip, keep, .. } = scratch;
        let stats = traverse::<GROUP_WIDTH, R>(
            tree,
            rules,
            &group[..width],
            params[0].branch_preference,
            false,
            group_collectors,
            group_stack,
            strip,
            keep,
        );
        let time_total_ns = start.elapsed().as_nanos() as u64;
        for (collector, stats) in group_collectors.iter_mut().zip(&stats[..width]) {
            let stats = SearchStats { time_total_ns, ..*stats };
            out.push(SearchResult { neighbors: collector.take_sorted(), stats });
        }
    }
}
