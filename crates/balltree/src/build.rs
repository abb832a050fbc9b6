//! Construction of both trees (Algorithms 1, 2 and 4 of the paper) by one recursion.
//!
//! Either tree starts as the same skeleton: seed-grow splits (Algorithm 2), the points
//! of every leaf sorted by descending distance `r_x` to the leaf centroid, and every
//! internal center combined from its children's in O(d) (Lemma 1). A Ball-Tree then
//! moves sibling centers into adjacent rows for its paired matvec; a BC-Tree adds the
//! second pass of Algorithm 4 (center norms and per-point ball and cone structures). The
//! two kinds built from one `(seed, leaf_size)` therefore hold the same permutation and
//! the same node ranges.
//!
//! ## Determinism
//!
//! Every split draws its pivot from an RNG seeded with `(builder seed, subtree offset,
//! subtree length)`: invariants of the subtree, not of scheduling. Above
//! `PARALLEL_CUTOFF` points the two child subtrees are built on scoped threads
//! (rayon-`join` style on `std::thread::scope`: the build environment cannot vendor
//! rayon), the right one into an arena of its own that is then appended, so the nodes
//! stay in preorder. A given `(seed, leaf_size)` therefore gives one tree for every
//! thread count, and `build` is `build_parallel(_, 1)`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use p2h_core::{distance, Error, PointSet, Result, Scalar, VecBuf};

use crate::node::{Node, NO_CHILD};
use crate::split::seed_grow_split;
use crate::tree::{BallTree, BcTree, LeafPointAux, Skeleton};

/// Default maximum leaf size `N0` (the paper sweeps 100–10,000; 100 is its reference
/// setting for the indexing-cost experiments).
pub const DEFAULT_LEAF_SIZE: usize = 100;

/// Subtrees smaller than this are built on the calling thread: below ~2k points the
/// split work per level is too small to amortize a thread spawn.
const PARALLEL_CUTOFF: usize = 2_048;

/// Below this many points the BC-Tree's second pass runs on the calling thread: the
/// per-point work is a handful of O(d) kernels, so thread spawns only pay off on
/// reasonably large trees.
const SECOND_PASS_PARALLEL_CUTOFF: usize = 4_096;

/// Configuration for building a [`BallTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BallTreeBuilder {
    /// Maximum number of points in a leaf node (`N0` in the paper).
    pub leaf_size: usize,
    /// Seed for the random seed-grow pivot selection, so builds are reproducible.
    pub seed: u64,
}

impl Default for BallTreeBuilder {
    fn default() -> Self {
        Self { leaf_size: DEFAULT_LEAF_SIZE, seed: 0 }
    }
}

impl BallTreeBuilder {
    /// Creates a builder with the given maximum leaf size and the default seed.
    pub fn new(leaf_size: usize) -> Self {
        Self { leaf_size, ..Self::default() }
    }

    /// Sets the RNG seed used by the split rule.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds a Ball-Tree over the given (augmented) point set on the calling thread:
    /// `build_parallel(points, 1)`.
    ///
    /// Construction runs in `O(d · n · log n)` expected time and `O(n · d)` space
    /// (Theorem 1): every level of the recursion touches every point a constant number
    /// of times, and the tree has `O(log(n / N0))` expected levels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `leaf_size` is zero and
    /// [`Error::EmptyDataSet`] if the point set is empty.
    pub fn build(&self, points: &PointSet) -> Result<BallTree> {
        self.build_parallel(points, 1)
    }

    /// Builds a Ball-Tree over `threads` worker threads (`0` = one per available CPU).
    /// The tree is the same for every thread count (see the module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BallTreeBuilder::build`].
    pub fn build_parallel(&self, points: &PointSet, threads: usize) -> Result<BallTree> {
        let mut tree = build_skeleton(points, self.leaf_size, self.seed, threads)?;
        pack_sibling_centers(&mut tree);
        Ok(BallTree { tree })
    }
}

/// Configuration for building a [`BcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcTreeBuilder {
    /// Maximum number of points in a leaf node (`N0` in the paper).
    pub leaf_size: usize,
    /// Seed for the random seed-grow pivot selection.
    pub seed: u64,
}

impl Default for BcTreeBuilder {
    fn default() -> Self {
        Self { leaf_size: DEFAULT_LEAF_SIZE, seed: 0 }
    }
}

impl BcTreeBuilder {
    /// Creates a builder with the given maximum leaf size and the default seed.
    pub fn new(leaf_size: usize) -> Self {
        Self { leaf_size, ..Self::default() }
    }

    /// Sets the RNG seed used by the split rule.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds a BC-Tree over the given (augmented) point set on the calling thread:
    /// `build_parallel(points, 1)`.
    ///
    /// Construction follows Algorithm 4: the Ball-Tree's skeleton, then a second pass
    /// computing every center's norm and every point's ball and cone structures. Total
    /// cost is `O(d·n·log n)` time and `O(n·d)` space (Theorem 6).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `leaf_size` is zero and
    /// [`Error::EmptyDataSet`] if the point set is empty.
    pub fn build(&self, points: &PointSet) -> Result<BcTree> {
        self.build_parallel(points, 1)
    }

    /// Builds a BC-Tree over `threads` worker threads (`0` = one per available CPU),
    /// for the recursion and for the second pass. The tree is the same for every thread
    /// count (see the module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BcTreeBuilder::build`].
    pub fn build_parallel(&self, points: &PointSet, threads: usize) -> Result<BcTree> {
        let tree = build_skeleton(points, self.leaf_size, self.seed, threads)?;
        let threads =
            if points.len() < SECOND_PASS_PARALLEL_CUTOFF { 1 } else { resolve_threads(threads) };
        let center_norms = compute_center_norms(&tree, threads);
        let aux = compute_leaf_aux(&tree, &center_norms, threads);
        Ok(BcTree { tree, center_norms: center_norms.into(), aux })
    }
}

/// Resolves a thread-count argument: `0` means one worker per available CPU.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        threads
    }
}

/// Runs the recursion over all points and lays the points out in tree order, so that
/// every leaf scan is sequential.
fn build_skeleton(
    points: &PointSet,
    leaf_size: usize,
    seed: u64,
    threads: usize,
) -> Result<Skeleton> {
    if leaf_size == 0 {
        return Err(Error::InvalidParameter {
            name: "leaf_size",
            message: "the maximum leaf size N0 must be at least 1".into(),
        });
    }
    if points.is_empty() {
        return Err(Error::EmptyDataSet);
    }
    let dim = points.dim();
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut arena = Arena::new(dim);
    build_recursive(points, &mut order, 0, leaf_size, seed, resolve_threads(threads), &mut arena);

    // Written in place: at scale these are the index's two largest arrays, and
    // `from_fn` gives each its own pages, returned to the system when the tree drops.
    let reordered = VecBuf::from_fn(order.len() * dim, |flat| {
        for (row, &idx) in flat.chunks_exact_mut(dim).zip(&order) {
            row.copy_from_slice(points.point(idx));
        }
    });
    let original_ids = VecBuf::from_fn(order.len(), |ids| {
        for (id, &idx) in ids.iter_mut().zip(&order) {
            *id = idx as u32;
        }
    });
    Ok(Skeleton {
        points: PointSet::from_buf(dim, reordered)?,
        original_ids,
        nodes: arena.nodes,
        centers: arena.centers.into(),
        leaf_size,
        build_seed: seed,
    })
}

/// Nodes in preorder with one center row each: node `i`'s center is row `i`.
struct Arena {
    nodes: Vec<Node>,
    centers: Vec<Scalar>,
    dim: usize,
}

impl Arena {
    fn new(dim: usize) -> Self {
        Self { nodes: Vec::new(), centers: Vec::new(), dim }
    }

    /// Appends a node covering `start..end` with a zeroed center row; returns its id.
    fn push(&mut self, start: usize, end: usize) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            center_offset: id as u32,
            radius: 0.0,
            start: start as u32,
            end: end as u32,
            left: NO_CHILD,
            right: NO_CHILD,
        });
        self.centers.resize(self.centers.len() + self.dim, 0.0);
        id
    }

    fn center_mut(&mut self, id: usize) -> &mut [Scalar] {
        &mut self.centers[id * self.dim..(id + 1) * self.dim]
    }

    /// Appends `sub`, built by another worker, rebasing its ids and rows.
    fn append(&mut self, sub: Arena) {
        let base = self.nodes.len() as u32;
        self.nodes.extend(sub.nodes.into_iter().map(|mut node| {
            node.center_offset += base;
            if node.left != NO_CHILD {
                node.left += base;
                node.right += base;
            }
            node
        }));
        self.centers.extend(sub.centers);
    }
}

/// Mixes a per-node seed from the builder seed and the subtree's (offset, length) with
/// a SplitMix64-style finalizer.
fn node_seed(builder_seed: u64, offset: usize, len: usize) -> u64 {
    let mut z = builder_seed
        ^ (offset as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (len as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the subtree covering `slice` (positions `offset..offset + slice.len()` of the
/// final ordering) into `arena`, splitting the recursion across up to `threads` workers:
/// above the cutoff the right child is built into an arena of its own on a scoped thread
/// and appended after the left one, which keeps the preorder layout. A node's center is
/// written after its children's, so the Lemma-1 combination can read them.
fn build_recursive(
    points: &PointSet,
    slice: &mut [usize],
    offset: usize,
    leaf_size: usize,
    builder_seed: u64,
    threads: usize,
    arena: &mut Arena,
) {
    let len = slice.len();
    let dim = arena.dim;
    let id = arena.push(offset, offset + len);

    if len <= leaf_size {
        let (center, radius) = build_leaf(points, slice);
        arena.center_mut(id).copy_from_slice(&center);
        arena.nodes[id].radius = radius;
        return;
    }

    let mut rng = StdRng::seed_from_u64(node_seed(builder_seed, offset, len));
    let split = seed_grow_split(points, slice, &mut rng);
    let (left_slice, right_slice) = slice.split_at_mut(split);
    let left_len = left_slice.len();
    let right_len = right_slice.len();

    let left = id + 1;
    let right = if threads > 1 && len >= PARALLEL_CUTOFF {
        let right_threads = threads / 2;
        let left_threads = threads - right_threads;
        let right_arena = std::thread::scope(|scope| {
            let right_handle = scope.spawn(move || {
                let mut sub = Arena::new(dim);
                build_recursive(
                    points,
                    right_slice,
                    offset + split,
                    leaf_size,
                    builder_seed,
                    right_threads,
                    &mut sub,
                );
                sub
            });
            build_recursive(
                points,
                left_slice,
                offset,
                leaf_size,
                builder_seed,
                left_threads,
                arena,
            );
            right_handle.join().expect("parallel build worker panicked")
        });
        let right = arena.nodes.len();
        arena.append(right_arena);
        right
    } else {
        build_recursive(points, left_slice, offset, leaf_size, builder_seed, 1, arena);
        let right = arena.nodes.len();
        build_recursive(points, right_slice, offset + split, leaf_size, builder_seed, 1, arena);
        right
    };

    let center = combine_child_centers(
        &arena.centers[left * dim..(left + 1) * dim],
        &arena.centers[right * dim..(right + 1) * dim],
        left_len,
        right_len,
    );
    let radius = slice
        .iter()
        .map(|&i| distance::euclidean(points.point(i), &center))
        .fold(0.0 as Scalar, Scalar::max);
    arena.center_mut(id).copy_from_slice(&center);
    let node = &mut arena.nodes[id];
    node.radius = radius;
    node.left = left as u32;
    node.right = right as u32;
}

/// Computes a leaf's center and radius, sorting the leaf's index slice by descending
/// distance to the center, ties by ascending index (Algorithm 4, lines 3-9). Each
/// distance is computed once, as the sort key.
fn build_leaf(points: &PointSet, slice: &mut [usize]) -> (Vec<Scalar>, Scalar) {
    let center = points.centroid_of(slice);
    let mut keys: Vec<(Scalar, usize)> =
        slice.iter().map(|&i| (distance::euclidean_sq(points.point(i), &center), i)).collect();
    keys.sort_unstable_by(|(da, a), (db, b)| db.total_cmp(da).then_with(|| a.cmp(b)));
    for (slot, &(_, i)) in slice.iter_mut().zip(&keys) {
        *slot = i;
    }
    (center, keys[0].0.sqrt())
}

/// Lemma 1: the parent center is the size-weighted combination of the child centers,
/// computed in O(d) instead of O(d·|N|).
fn combine_child_centers(
    left_center: &[Scalar],
    right_center: &[Scalar],
    left_len: usize,
    right_len: usize,
) -> Vec<Scalar> {
    let total = (left_len + right_len) as Scalar;
    left_center
        .iter()
        .zip(right_center.iter())
        .map(|(&l, &r)| (l * left_len as Scalar + r * right_len as Scalar) / total)
        .collect()
}

/// Reorders the center rows so the two children of every internal node occupy
/// adjacent rows (left immediately followed by right), rewriting each node's
/// `center_offset`; the root keeps row 0.
///
/// This is the layout contract behind the Ball-Tree search's paired-children matvec:
/// one two-row [`p2h_core::kernels::dot_block`] call computes both child center inner
/// products of an expanded node, sharing the query loads the two separate `dot` calls
/// would repeat. Per-row blocked results are bit-identical to `dot`, so search answers
/// are unchanged.
fn pack_sibling_centers(tree: &mut Skeleton) {
    let dim = tree.points.dim();
    let nodes = &mut tree.nodes;
    let centers: &[Scalar] = &tree.centers;
    let row = |offset: u32| {
        let start = offset as usize * dim;
        &centers[start..start + dim]
    };
    let mut packed = Vec::with_capacity(centers.len());
    let mut new_offset = vec![0u32; nodes.len()];
    packed.extend_from_slice(row(nodes[0].center_offset));
    let mut stack: Vec<u32> = vec![0];
    while let Some(id) = stack.pop() {
        let node = nodes[id as usize];
        if node.is_leaf() {
            continue;
        }
        let next = (packed.len() / dim) as u32;
        new_offset[node.left as usize] = next;
        new_offset[node.right as usize] = next + 1;
        packed.extend_from_slice(row(nodes[node.left as usize].center_offset));
        packed.extend_from_slice(row(nodes[node.right as usize].center_offset));
        stack.push(node.left);
        stack.push(node.right);
    }
    for (node, &offset) in nodes.iter_mut().zip(&new_offset) {
        node.center_offset = offset;
    }
    tree.centers = packed.into();
}

/// Computes `‖c‖` for every node center, splitting the node array over `threads`
/// scoped workers (per-node independent).
fn compute_center_norms(tree: &Skeleton, threads: usize) -> Vec<Scalar> {
    let nodes = &tree.nodes;
    let norm_of = |node: &Node| distance::norm(tree.center(node));
    let workers = threads.min(nodes.len()).max(1);
    if workers == 1 {
        return nodes.iter().map(norm_of).collect();
    }
    let chunk = nodes.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(norm_of).collect::<Vec<Scalar>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("center-norm worker panicked")).collect()
    })
}

/// Computes the per-point ball/cone leaf structures (Algorithm 4's second pass).
///
/// The leaves tile `0..n` with disjoint contiguous ranges, so the output array is
/// handed out to scoped workers as disjoint `split_at_mut` sub-slices — one batch of
/// consecutive leaves (≈ `n / threads` points) per worker, no synchronization needed.
/// The values are the same for every thread count (same per-element float operations).
fn compute_leaf_aux(tree: &Skeleton, center_norms: &[Scalar], threads: usize) -> Vec<LeafPointAux> {
    let nodes = &tree.nodes;
    let n = tree.points.len();
    let mut leaves: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].is_leaf()).collect();
    leaves.sort_unstable_by_key(|&i| nodes[i].start);

    let mut aux = vec![LeafPointAux::default(); n];
    if threads <= 1 {
        for &i in &leaves {
            fill_leaf_aux(tree, &nodes[i], center_norms[i], &mut aux, 0);
        }
        return aux;
    }

    let target = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest: &mut [LeafPointAux] = &mut aux;
        let mut base = 0usize;
        let mut from = 0usize;
        while from < leaves.len() {
            let mut to = from;
            let mut count = 0usize;
            while to < leaves.len() && count < target {
                count += nodes[leaves[to]].size();
                to += 1;
            }
            let batch = &leaves[from..to];
            let (slice, tail) = rest.split_at_mut(count);
            rest = tail;
            let batch_base = base;
            scope.spawn(move || {
                for &i in batch {
                    fill_leaf_aux(tree, &nodes[i], center_norms[i], slice, batch_base);
                }
            });
            base += count;
            from = to;
        }
    });
    aux
}

/// Fills the aux entries of one leaf into `out` (whose first element corresponds to
/// reordered position `base`).
fn fill_leaf_aux(
    tree: &Skeleton,
    node: &Node,
    center_norm: Scalar,
    out: &mut [LeafPointAux],
    base: usize,
) {
    let center = tree.center(node);
    for pos in node.start as usize..node.end as usize {
        let x = tree.points.point(pos);
        let r_x = distance::euclidean(x, center);
        let x_norm = distance::norm(x);
        let cos_phi = if center_norm <= Scalar::EPSILON || x_norm <= Scalar::EPSILON {
            0.0
        } else {
            (distance::dot(x, center) / (x_norm * center_norm)).clamp(-1.0, 1.0)
        };
        out[pos - base] = LeafPointAux {
            radius: r_x,
            x_cos: x_norm * cos_phi,
            x_sin: x_norm * (1.0 - cos_phi * cos_phi).max(0.0).sqrt(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex};
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
        SyntheticDataset::new(
            "tree-build",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.2 },
            seed,
        )
        .generate()
        .unwrap()
    }

    fn identical(n: usize, dim: usize) -> PointSet {
        PointSet::augment(&vec![vec![0.5 as Scalar; dim]; n]).unwrap()
    }

    /// The node fields the two kinds share: everything but the center row.
    fn ranges(nodes: &[Node]) -> Vec<(u32, u32, u32, u32)> {
        nodes.iter().map(|n| (n.start, n.end, n.left, n.right)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A `(seed, leaf_size)` gives one tree per kind: `build` equals
        /// `build_parallel` at every thread count array for array, and the Ball-Tree and
        /// the BC-Tree hold the same permutation and node ranges. `shape` 0 makes a
        /// single leaf and 1 all-identical points; sizes reach past both parallel
        /// cutoffs.
        #[test]
        fn one_tree_per_seed_for_every_thread_count_and_both_kinds(
            n in 1usize..7_000,
            dim in 1usize..10,
            leaf_size in 1usize..300,
            seed in 0u64..1_000,
            shape in 0usize..4,
        ) {
            let ps = match shape {
                0 => dataset(n.min(leaf_size), dim, seed),
                1 => identical(n, dim),
                _ => dataset(n, dim, seed),
            };
            let ball = BallTreeBuilder::new(leaf_size).with_seed(seed);
            let bc = BcTreeBuilder::new(leaf_size).with_seed(seed);
            let (b, c) = (ball.build(&ps).unwrap(), bc.build(&ps).unwrap());
            for threads in [0, 1, 2, 3, 8] {
                let t = ball.build_parallel(&ps, threads).unwrap();
                proptest::prop_assert_eq!(t.original_ids(), b.original_ids());
                proptest::prop_assert_eq!(t.points().as_flat(), b.points().as_flat());
                proptest::prop_assert_eq!(t.nodes(), b.nodes());
                proptest::prop_assert_eq!(t.centers(), b.centers());
                let t = bc.build_parallel(&ps, threads).unwrap();
                proptest::prop_assert_eq!(t.original_ids(), c.original_ids());
                proptest::prop_assert_eq!(t.points().as_flat(), c.points().as_flat());
                proptest::prop_assert_eq!(t.nodes(), c.nodes());
                proptest::prop_assert_eq!(t.centers(), c.centers());
                proptest::prop_assert_eq!(t.center_norms(), c.center_norms());
                proptest::prop_assert_eq!(t.leaf_aux(), c.leaf_aux());
            }
            proptest::prop_assert_eq!(b.original_ids(), c.original_ids());
            proptest::prop_assert_eq!(ranges(b.nodes()), ranges(c.nodes()));
        }
    }

    #[test]
    fn single_leaf_when_n_below_leaf_size() {
        let ps = dataset(64, 8, 13);
        let ball = BallTreeBuilder::new(100).build(&ps).unwrap();
        ball.check_invariants().unwrap();
        let bc = BcTreeBuilder::new(100).build(&ps).unwrap();
        bc.check_invariants().unwrap();
        for (nodes, leaves, depth) in [
            (ball.node_count(), ball.leaf_count(), ball.depth()),
            (bc.node_count(), bc.leaf_count(), bc.depth()),
        ] {
            assert_eq!((nodes, leaves, depth), (1, 1, 0));
        }
    }

    #[test]
    fn leaf_order_is_descending_distance_then_ascending_index() {
        // The centroid is 1.5: rows 0, 1, 3 and 4 lie 1.5 from it, rows 2 and 5 lie 0.5
        // from it, and ties go to the lower index.
        let rows = vec![vec![0.0 as Scalar], vec![3.0], vec![1.0], vec![3.0], vec![0.0], vec![2.0]];
        let ps = PointSet::augment(&rows).unwrap();
        let mut slice = vec![5, 4, 3, 2, 1, 0];
        let (center, radius) = build_leaf(&ps, &mut slice);
        assert_eq!(slice, [0, 1, 3, 4, 2, 5]);
        assert_eq!(radius, distance::euclidean(ps.point(0), &center));
    }

    #[test]
    fn lemma_1_internal_centers_match_centroids() {
        let ps = dataset(1_500, 10, 19);
        let ball = BallTreeBuilder::new(50).build(&ps).unwrap();
        let bc = BcTreeBuilder::new(50).build(&ps).unwrap();
        for (nodes, centers, points) in
            [(ball.nodes(), ball.centers(), ball.points()), (bc.nodes(), bc.centers(), bc.points())]
        {
            for node in nodes.iter().filter(|n| !n.is_leaf()) {
                let direct = points.centroid_of_range(node.start as usize, node.end as usize);
                let row = node.center_offset as usize * points.dim();
                for (a, b) in direct.iter().zip(&centers[row..row + points.dim()]) {
                    assert!(
                        (a - b).abs() < 1e-2 * (1.0 + a.abs()),
                        "Lemma 1 center differs from direct centroid: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bc_tree_is_larger_than_ball_tree_but_same_order() {
        let ps = dataset(5_000, 16, 19);
        let bc = BcTreeBuilder::new(100).build(&ps).unwrap();
        let ball = BallTreeBuilder::new(100).build(&ps).unwrap();
        let bc_size = bc.structure_size_bytes();
        let ball_size = ball.structure_size_bytes();
        assert!(bc_size > ball_size, "BC-Tree stores extra Θ(n) leaf structures");
        assert!(
            (bc_size as f64) < ball_size as f64 * 3.0,
            "the overhead is Θ(n), not Θ(n·d): bc={bc_size}, ball={ball_size}"
        );
    }

    /// A tree large enough that its points and ids live in their own pages counts them
    /// exactly as it would count `Vec`s: `len × 4` bytes each.
    #[test]
    fn page_backed_arrays_leave_the_index_size_unchanged() {
        let n = p2h_core::buf::PAGES_MIN_BYTES / 4 + 1_000;
        let ps = dataset(n, 2, 23);
        let ball = BallTreeBuilder::new(100).build(&ps).unwrap();
        let bc = BcTreeBuilder::new(100).build(&ps).unwrap();
        for tree in [&ball.tree, &bc.tree] {
            if cfg!(any(target_os = "linux", target_os = "macos")) {
                assert!(format!("{:?}", tree.original_ids).contains("pages"));
            }
            assert!(!tree.points.is_mapped());
            assert_eq!(
                tree.points.size_bytes(),
                n * ps.dim() * 4 + std::mem::size_of::<PointSet>()
            );
            assert_eq!(tree.original_ids.heap_bytes(), n * 4);
        }
        let structure = |tree: &Skeleton| {
            tree.nodes.len() * std::mem::size_of::<Node>() + tree.centers.len() * 4 + n * 4
        };
        assert_eq!(
            ball.index_size_bytes(),
            structure(&ball.tree) + std::mem::size_of::<BallTree>()
        );
        assert_eq!(
            bc.index_size_bytes(),
            structure(&bc.tree)
                + bc.center_norms.len() * 4
                + n * std::mem::size_of::<LeafPointAux>()
                + std::mem::size_of::<BcTree>()
        );
    }

    fn queries(ps: &PointSet, seed: u64) -> Vec<HyperplaneQuery> {
        generate_queries(ps, 6, QueryDistribution::DataDifference, seed).unwrap()
    }

    /// Tests of the Ball-Tree alone.
    mod ball {
        use super::*;

        #[test]
        fn builds_and_satisfies_invariants() {
            let ps = dataset(2_000, 16, 13);
            let tree = BallTreeBuilder::new(50).with_seed(1).build(&ps).unwrap();
            tree.check_invariants().unwrap();
            assert_eq!(tree.points().len(), 2_000);
            assert!(tree.node_count() >= 2_000 / 50);
            assert!(tree.leaf_count() >= 2_000 / 50);
            assert!(tree.depth() >= 4, "depth {} too small for 2000/50 points", tree.depth());
            assert_eq!(tree.leaf_size(), 50);
        }

        #[test]
        fn default_build_works() {
            let ps = dataset(500, 8, 13);
            let tree = BallTree::build(&ps).unwrap();
            tree.check_invariants().unwrap();
            assert_eq!(tree.leaf_size(), DEFAULT_LEAF_SIZE);
        }

        #[test]
        fn rejects_invalid_parameters() {
            let ps = dataset(100, 4, 13);
            assert!(matches!(
                BallTreeBuilder::new(0).build(&ps),
                Err(Error::InvalidParameter { .. })
            ));
        }

        #[test]
        fn identical_points_still_build() {
            let ps = identical(500, 3);
            let tree = BallTreeBuilder::new(32).build(&ps).unwrap();
            tree.check_invariants().unwrap();
            assert!(tree.node_count() > 1);
            // Every node's radius is 0 for identical points.
            assert!(tree.nodes().iter().all(|n| n.radius < 1e-5));
        }

        #[test]
        fn construction_is_deterministic_for_a_seed() {
            let ps = dataset(1_000, 8, 13);
            let a = BallTreeBuilder::new(64).with_seed(5).build(&ps).unwrap();
            let b = BallTreeBuilder::new(64).with_seed(5).build(&ps).unwrap();
            assert_eq!(a.original_ids(), b.original_ids());
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.centers(), b.centers());
        }

        #[test]
        fn parallel_build_is_deterministic_across_thread_counts() {
            let ps = dataset(6_000, 12, 41);
            let reference = BallTreeBuilder::new(64).with_seed(3).build(&ps).unwrap();
            for threads in [2, 4, 8] {
                let tree =
                    BallTreeBuilder::new(64).with_seed(3).build_parallel(&ps, threads).unwrap();
                assert_eq!(tree.original_ids(), reference.original_ids(), "threads={threads}");
                assert_eq!(tree.nodes(), reference.nodes(), "threads={threads}");
                assert_eq!(tree.centers(), reference.centers(), "threads={threads}");
            }
        }

        #[test]
        fn parallel_build_satisfies_invariants_and_is_exact() {
            let ps = dataset(5_000, 10, 41);
            let tree = BallTreeBuilder::new(50).build_parallel(&ps, 4).unwrap();
            tree.check_invariants().unwrap();
            let scan = LinearScan::new(ps.clone());
            for q in &queries(&ps, 17) {
                assert_eq!(tree.search_exact(q, 10).neighbors, scan.search_exact(q, 10).neighbors);
            }
        }

        #[test]
        fn parallel_build_handles_edge_shapes() {
            // Single leaf (n <= leaf_size).
            let tree = BallTreeBuilder::new(200).build_parallel(&dataset(100, 6, 41), 4).unwrap();
            assert_eq!(tree.node_count(), 1);
            tree.check_invariants().unwrap();
            // Identical points (degenerate splits), above the parallel cutoff.
            let tree = BallTreeBuilder::new(32).build_parallel(&identical(4_000, 2), 4).unwrap();
            tree.check_invariants().unwrap();
            assert!(matches!(
                BallTreeBuilder::new(0).build_parallel(&dataset(50, 4, 41), 2),
                Err(Error::InvalidParameter { .. })
            ));
        }

        #[test]
        fn zero_threads_resolves_to_available_parallelism() {
            let ps = dataset(3_000, 8, 41);
            let tree = BallTreeBuilder::new(64).build_parallel(&ps, 0).unwrap();
            tree.check_invariants().unwrap();
            let same = BallTreeBuilder::new(64).build_parallel(&ps, 2).unwrap();
            assert_eq!(tree.original_ids(), same.original_ids());
        }

        #[test]
        fn smaller_leaves_mean_more_nodes() {
            let ps = dataset(3_000, 8, 13);
            let coarse = BallTreeBuilder::new(500).build(&ps).unwrap();
            let fine = BallTreeBuilder::new(20).build(&ps).unwrap();
            assert!(fine.node_count() > coarse.node_count());
            assert!(fine.structure_size_bytes() > coarse.structure_size_bytes());
        }

        #[test]
        fn sibling_centers_are_adjacent_and_root_is_row_zero() {
            let ps = dataset(3_000, 12, 13);
            let tree = BallTreeBuilder::new(64).with_seed(7).build(&ps).unwrap();
            assert_eq!(tree.nodes()[0].center_offset, 0);
            assert_eq!(tree.centers().len(), tree.node_count() * ps.dim());
            for node in tree.nodes() {
                if !node.is_leaf() {
                    let left = &tree.nodes()[node.left as usize];
                    let right = &tree.nodes()[node.right as usize];
                    assert_eq!(right.center_offset, left.center_offset + 1);
                }
            }
            // The packed rows still hold each node's own center (spot-check via radius
            // containment, which `check_invariants` verifies against the packed buffer).
            tree.check_invariants().unwrap();
        }

        #[test]
        fn structure_is_lightweight_relative_to_data() {
            // With N0 = 100 the paper observes index sizes much smaller than the data
            // size; the structure (centers + nodes + ids) should be well under the raw
            // point bytes.
            let ps = dataset(10_000, 32, 13);
            let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
            let data_bytes = ps.size_bytes();
            assert!(
                tree.structure_size_bytes() < data_bytes,
                "structure {} should be smaller than data {}",
                tree.structure_size_bytes(),
                data_bytes
            );
        }
    }

    /// Tests of the BC-Tree alone.
    mod bc {
        use super::*;

        #[test]
        fn builds_and_satisfies_invariants() {
            let ps = dataset(2_500, 12, 19);
            let tree = BcTreeBuilder::new(64).with_seed(2).build(&ps).unwrap();
            tree.check_invariants().unwrap();
            assert!(tree.node_count() > 2_500 / 64);
            assert!(tree.leaf_count() >= 2_500 / 64);
            assert!(tree.depth() >= 4, "depth {} too small for 2500/64 points", tree.depth());
            assert_eq!(tree.points().len(), 2_500);
            assert_eq!(tree.leaf_size(), 64);
            assert_eq!(tree.leaf_aux().len(), 2_500);
        }

        #[test]
        fn default_build_works() {
            let ps = dataset(300, 8, 19);
            let tree = BcTree::build(&ps).unwrap();
            tree.check_invariants().unwrap();
            assert_eq!(tree.leaf_size(), DEFAULT_LEAF_SIZE);
        }

        #[test]
        fn rejects_invalid_parameters() {
            let ps = dataset(100, 4, 19);
            assert!(matches!(
                BcTreeBuilder::new(0).build(&ps),
                Err(Error::InvalidParameter { .. })
            ));
        }

        #[test]
        fn identical_points_still_build() {
            let tree = BcTreeBuilder::new(25).build(&identical(300, 3)).unwrap();
            tree.check_invariants().unwrap();
            assert!(tree.node_count() > 1);
            assert!(tree.leaf_aux().iter().all(|a| a.radius < 1e-5));
        }

        #[test]
        fn construction_is_deterministic_for_a_seed() {
            let ps = dataset(800, 8, 19);
            let a = BcTreeBuilder::new(64).with_seed(9).build(&ps).unwrap();
            let b = BcTreeBuilder::new(64).with_seed(9).build(&ps).unwrap();
            assert_eq!(a.original_ids(), b.original_ids());
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.leaf_aux(), b.leaf_aux());
        }

        #[test]
        fn parallel_build_is_deterministic_across_thread_counts() {
            let ps = dataset(6_000, 10, 43);
            let reference = BcTreeBuilder::new(64).with_seed(5).build(&ps).unwrap();
            for threads in [2, 4, 8] {
                let tree =
                    BcTreeBuilder::new(64).with_seed(5).build_parallel(&ps, threads).unwrap();
                assert_eq!(tree.original_ids(), reference.original_ids(), "threads={threads}");
                assert_eq!(tree.nodes(), reference.nodes(), "threads={threads}");
                assert_eq!(tree.leaf_aux(), reference.leaf_aux(), "threads={threads}");
            }
        }

        #[test]
        fn parallel_build_satisfies_invariants_and_is_exact() {
            let ps = dataset(5_000, 12, 43);
            let tree = BcTreeBuilder::new(50).build_parallel(&ps, 4).unwrap();
            tree.check_invariants().unwrap();
            let scan = LinearScan::new(ps.clone());
            for q in &queries(&ps, 29) {
                assert_eq!(tree.search_exact(q, 10).neighbors, scan.search_exact(q, 10).neighbors);
            }
        }

        #[test]
        fn parallel_build_handles_edge_shapes() {
            let tree = BcTreeBuilder::new(200).build_parallel(&dataset(80, 6, 43), 4).unwrap();
            assert_eq!(tree.node_count(), 1);
            tree.check_invariants().unwrap();
            let tree = BcTreeBuilder::new(32).build_parallel(&identical(4_000, 2), 4).unwrap();
            tree.check_invariants().unwrap();
            assert!(matches!(
                BcTreeBuilder::new(0).build_parallel(&dataset(50, 4, 43), 2),
                Err(Error::InvalidParameter { .. })
            ));
        }

        #[test]
        fn second_pass_is_identical_across_thread_counts() {
            // The dataset is above SECOND_PASS_PARALLEL_CUTOFF, so the aux and
            // center-norm pass really fans out: every thread count must give the
            // one-thread values.
            let ps = dataset(6_000, 12, 19);
            assert!(ps.len() >= SECOND_PASS_PARALLEL_CUTOFF);
            let one = BcTreeBuilder::new(64).with_seed(11).build(&ps).unwrap();
            one.check_invariants().unwrap();
            for threads in [2, 3, 8] {
                let tree =
                    BcTreeBuilder::new(64).with_seed(11).build_parallel(&ps, threads).unwrap();
                assert_eq!(tree.leaf_aux(), one.leaf_aux(), "threads={threads}");
                assert_eq!(tree.center_norms(), one.center_norms(), "threads={threads}");
            }
        }

        #[test]
        fn leaves_sorted_by_descending_radius() {
            let ps = dataset(1_000, 8, 19);
            let tree = BcTreeBuilder::new(40).build(&ps).unwrap();
            for node in tree.nodes().iter().filter(|n| n.is_leaf()) {
                let radii: Vec<Scalar> =
                    (node.start..node.end).map(|p| tree.leaf_aux()[p as usize].radius).collect();
                assert!(
                    radii.windows(2).all(|w| w[0] + 1e-5 >= w[1]),
                    "leaf radii not descending: {radii:?}"
                );
                // The first point attains the leaf radius.
                if let Some(&first) = radii.first() {
                    assert!((first - node.radius).abs() < 1e-3 * (1.0 + node.radius));
                }
            }
        }
    }
}
