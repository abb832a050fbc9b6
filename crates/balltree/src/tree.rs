//! The two index types: the Ball-Tree (Section III of the paper) and the BC-Tree
//! (Section IV), which is the Ball-Tree's arrays plus per-node center norms and the
//! per-point ball and cone leaf structures.

use p2h_core::{distance, Error, PointSet, Result, Scalar, VecBuf};

use crate::build::{BallTreeBuilder, BcTreeBuilder};
use crate::node::{validate_permutation, validate_structure, Node};
use crate::traverse::TreeArrays;

/// The arrays both tree kinds hold, with the checks and accessors written once.
#[derive(Debug, Clone)]
pub(crate) struct Skeleton {
    /// Points reordered so that every node covers a contiguous range.
    pub(crate) points: PointSet,
    /// Mapping from reordered position to the original point index. Buffer-backed so
    /// snapshot loaders can restore it zero-copy from a mapped region.
    pub(crate) original_ids: VecBuf<u32>,
    /// Node arena; node 0 is the root.
    pub(crate) nodes: Vec<Node>,
    /// Flat buffer of node centers, one `dim`-sized row per node, addressed through
    /// `Node::center_offset`. Buffer-backed like `original_ids`.
    pub(crate) centers: VecBuf<Scalar>,
    /// Maximum leaf size `N0` the tree was built with.
    pub(crate) leaf_size: usize,
    /// RNG seed the tree was built with (recorded for snapshots and reproducibility).
    pub(crate) build_seed: u64,
}

impl Skeleton {
    /// Checks arrays that did not come from the builder (a snapshot) and assembles them.
    /// `siblings_adjacent` demands the Ball-Tree's paired-center layout.
    fn from_parts(
        points: PointSet,
        original_ids: VecBuf<u32>,
        nodes: Vec<Node>,
        centers: VecBuf<Scalar>,
        leaf_size: usize,
        build_seed: u64,
        siblings_adjacent: bool,
    ) -> Result<Self> {
        let n = points.len();
        let dim = points.dim();
        validate_permutation(&original_ids, n)?;
        if centers.len() != nodes.len() * dim {
            return Err(Error::Corrupt(format!(
                "center buffer has {} scalars for {} nodes of dim {dim}",
                centers.len(),
                nodes.len()
            )));
        }
        validate_structure(&nodes, n, nodes.len(), leaf_size, siblings_adjacent)?;
        Ok(Self { points, original_ids, nodes, centers, leaf_size, build_seed })
    }

    /// The center of a node as a slice.
    #[inline]
    pub(crate) fn center(&self, node: &Node) -> &[Scalar] {
        let dim = self.points.dim();
        let start = node.center_offset as usize * dim;
        &self.centers[start..start + dim]
    }

    /// The arrays the traversal reads, resolved to plain slices once per search.
    pub(crate) fn arrays(&self) -> TreeArrays<'_> {
        TreeArrays {
            nodes: &self.nodes,
            centers: &self.centers,
            points: self.points.as_flat(),
            original_ids: &self.original_ids,
            dim: self.points.dim(),
        }
    }

    /// Bytes of the nodes, centers and id mapping. Mapped buffers (zero-copy snapshot
    /// loads) count 0: their bytes belong to the shared region.
    fn structure_size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.centers.heap_bytes()
            + self.original_ids.heap_bytes()
    }

    /// The invariants every tree keeps: the structural ones its loader checks (see
    /// [`Skeleton::from_parts`]) and every point inside its node's ball, within a small
    /// tolerance.
    fn check_invariants(&self, siblings_adjacent: bool) -> Result<()> {
        let n = self.points.len();
        validate_permutation(&self.original_ids, n)?;
        validate_structure(&self.nodes, n, self.nodes.len(), self.leaf_size, siblings_adjacent)?;
        for node in &self.nodes {
            let center = self.center(node);
            for pos in node.start..node.end {
                let d = distance::euclidean(self.points.point(pos as usize), center);
                if d > node.radius * (1.0 + 1e-4) + 1e-3 {
                    return Err(invalid(format!(
                        "point at distance {d} outside ball of radius {}",
                        node.radius
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The error of a failed `check_invariants`.
fn invalid(message: String) -> Error {
    Error::InvalidParameter { name: "tree", message }
}

/// A Ball-Tree index over an augmented point set (Section III of the paper).
///
/// Build one with [`BallTreeBuilder`]; query it through the
/// [`p2h_core::P2hIndex`] trait. The two children of every internal node have their
/// centers in adjacent rows of [`BallTree::centers`], so the search computes both
/// child inner products with one two-row matvec.
#[derive(Debug, Clone)]
pub struct BallTree {
    pub(crate) tree: Skeleton,
}

/// The BC-Tree index (Section IV of the paper): a Ball-Tree whose leaves keep, per
/// point, a **B**all and a **C**one structure ([`LeafPointAux`]) with the points of
/// every leaf sorted by descending `r_x`.
///
/// Build one with [`BcTreeBuilder`]; query it through [`p2h_core::P2hIndex`] (the
/// default full variant) or [`BcTree::search_variant`] for the ablation variants of
/// Figure 8.
#[derive(Debug, Clone)]
pub struct BcTree {
    pub(crate) tree: Skeleton,
    /// Buffer-backed; cached `‖c‖` per node.
    pub(crate) center_norms: VecBuf<Scalar>,
    pub(crate) aux: Vec<LeafPointAux>,
}

/// The per-point leaf structures of BC-Tree: the **B**all radius and the **C**one
/// decomposition of the point against its leaf center.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeafPointAux {
    /// `r_x = ‖x − c‖`, the point's distance to its leaf center (ball structure).
    pub radius: Scalar,
    /// `‖x‖·cos φ_x`, where `φ_x` is the angle between the point and the leaf center.
    pub x_cos: Scalar,
    /// `‖x‖·sin φ_x` (always non-negative).
    pub x_sin: Scalar,
}

/// The constituent arrays of a [`BcTree`], as consumed by [`BcTree::from_parts`] and
/// produced by the accessor methods. This is the persistence contract: a snapshot layer
/// stores exactly these arrays and restores them verbatim, so a loaded tree answers
/// every query bit-identically to the original (same kernel backend).
#[derive(Debug, Clone)]
pub struct BcTreeParts {
    /// Reordered point set (contiguous and `r_x`-sorted per leaf).
    pub points: PointSet,
    /// Reordered position → original point index (a permutation). Owned-or-mapped
    /// (`Vec<u32>` converts via `.into()`); mapped buffers make snapshot restores
    /// zero-copy.
    pub original_ids: VecBuf<u32>,
    /// Node arena; node 0 is the root.
    pub nodes: Vec<Node>,
    /// Flat center buffer, one `dim`-sized row per node. Owned-or-mapped.
    pub centers: VecBuf<Scalar>,
    /// Cached `‖c‖` per node. Owned-or-mapped.
    pub center_norms: VecBuf<Scalar>,
    /// Per-point ball/cone leaf structures.
    pub aux: Vec<LeafPointAux>,
    /// Maximum leaf size `N0`.
    pub leaf_size: usize,
    /// RNG seed the tree was built with.
    pub build_seed: u64,
}

/// The accessors both tree kinds expose over their [`Skeleton`].
macro_rules! skeleton_accessors {
    ($tree:ident, $builder:ident) => {
        impl $tree {
            /// Builds a tree with the default configuration (leaf size 100, seed 0).
            pub fn build(points: &PointSet) -> Result<Self> {
                $builder::default().build(points)
            }

            /// The maximum leaf size `N0` used for this tree.
            pub fn leaf_size(&self) -> usize {
                self.tree.leaf_size
            }

            /// Total number of nodes (internal + leaf).
            pub fn node_count(&self) -> usize {
                self.tree.nodes.len()
            }

            /// Number of leaf nodes.
            pub fn leaf_count(&self) -> usize {
                self.tree.nodes.iter().filter(|n| n.is_leaf()).count()
            }

            /// Depth of the tree (number of edges on the longest root-to-leaf path).
            pub fn depth(&self) -> usize {
                fn depth_of(nodes: &[Node], id: u32) -> usize {
                    let node = &nodes[id as usize];
                    if node.is_leaf() {
                        0
                    } else {
                        1 + depth_of(nodes, node.left).max(depth_of(nodes, node.right))
                    }
                }
                depth_of(&self.tree.nodes, 0)
            }

            /// The node arena (root is node 0).
            pub fn nodes(&self) -> &[Node] {
                &self.tree.nodes
            }

            /// The flat center buffer: one `dim`-sized row per node, addressed through
            /// [`Node::center_offset`]. Exposed (with the id mapping and the nodes) so
            /// persistence layers can serialize the tree without rebuilding it.
            pub fn centers(&self) -> &[Scalar] {
                &self.tree.centers
            }

            /// The mapping from reordered position to original point index.
            pub fn original_ids(&self) -> &[u32] {
                &self.tree.original_ids
            }

            /// The RNG seed this tree was built with.
            pub fn build_seed(&self) -> u64 {
                self.tree.build_seed
            }

            /// The reordered point set (contiguous per leaf).
            pub fn points(&self) -> &PointSet {
                &self.tree.points
            }
        }
    };
}

skeleton_accessors!(BallTree, BallTreeBuilder);
skeleton_accessors!(BcTree, BcTreeBuilder);

impl BallTree {
    /// Reassembles a tree from its constituent arrays — the exact inverse of reading
    /// [`BallTree::points`], [`BallTree::original_ids`], [`BallTree::nodes`], and
    /// [`BallTree::centers`] off a built tree. This is the load path for persistent
    /// snapshots: because the arrays are restored verbatim, the reassembled tree
    /// answers every query bit-identically to the original (same kernel backend).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] (never panics) if the arrays are inconsistent: wrong
    /// lengths, an id mapping that is not a permutation, or a node arena that fails the
    /// structural validation — including the adjacent-sibling-centers layout contract
    /// the search's paired matvec relies on.
    pub fn from_parts(
        points: PointSet,
        original_ids: impl Into<VecBuf<u32>>,
        nodes: Vec<Node>,
        centers: impl Into<VecBuf<Scalar>>,
        leaf_size: usize,
        build_seed: u64,
    ) -> Result<Self> {
        let tree = Skeleton::from_parts(
            points,
            original_ids.into(),
            nodes,
            centers.into(),
            leaf_size,
            build_seed,
            true,
        )?;
        Ok(Self { tree })
    }

    /// Memory used by the tree structure (nodes, centers, id mapping), excluding the raw
    /// data points. This is the "Index Size" quantity of Table III. Mapped buffers
    /// (zero-copy snapshot loads) count 0: their bytes belong to the shared region.
    pub fn structure_size_bytes(&self) -> usize {
        self.tree.structure_size_bytes() + std::mem::size_of::<Self>()
    }

    /// Validates the invariants of the tree. Used by tests; cheap enough to call on
    /// moderately sized trees.
    ///
    /// Checks that: children partition their parent's range, sibling centers are
    /// adjacent, every leaf has at most `N0` points, every point lies inside its node's
    /// ball (within a small tolerance), and the id mapping is a permutation. Structural
    /// violations are [`Error::Corrupt`], the others [`Error::InvalidParameter`].
    pub fn check_invariants(&self) -> Result<()> {
        self.tree.check_invariants(true)
    }
}

impl BcTree {
    /// The per-point leaf structures, indexed by reordered position.
    pub fn leaf_aux(&self) -> &[LeafPointAux] {
        &self.aux
    }

    /// The cached `‖c‖` per node, aligned with [`BcTree::nodes`].
    pub fn center_norms(&self) -> &[Scalar] {
        &self.center_norms
    }

    /// Reassembles a tree from its constituent arrays — the load path for persistent
    /// snapshots (the inverse of reading the accessors off a built tree).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] (never panics) if the arrays are inconsistent: wrong
    /// lengths, an id mapping that is not a permutation, or a node arena failing the
    /// structural validation. Floating-point payloads (centers, norms, aux) are
    /// restored verbatim and guarded end-to-end by the snapshot checksums.
    pub fn from_parts(parts: BcTreeParts) -> Result<Self> {
        let BcTreeParts {
            points,
            original_ids,
            nodes,
            centers,
            center_norms,
            aux,
            leaf_size,
            build_seed,
        } = parts;
        if center_norms.len() != nodes.len() {
            return Err(Error::Corrupt(format!(
                "center-norm buffer has {} entries for {} nodes",
                center_norms.len(),
                nodes.len()
            )));
        }
        if aux.len() != points.len() {
            return Err(Error::Corrupt(format!(
                "leaf-structure buffer has {} entries for {} points",
                aux.len(),
                points.len()
            )));
        }
        let tree = Skeleton::from_parts(
            points,
            original_ids,
            nodes,
            centers,
            leaf_size,
            build_seed,
            false,
        )?;
        Ok(Self { tree, center_norms, aux })
    }

    /// Memory used by the tree structure (nodes, centers, center norms, id mapping, and
    /// the three per-point leaf arrays), excluding the raw data points. This is the
    /// "Index Size" quantity of Table III; it exceeds the Ball-Tree's by the `Θ(n)` leaf
    /// structures, exactly as Theorem 6 predicts.
    pub fn structure_size_bytes(&self) -> usize {
        self.tree.structure_size_bytes()
            + self.center_norms.heap_bytes()
            + self.aux.len() * std::mem::size_of::<LeafPointAux>()
            + std::mem::size_of::<Self>()
    }

    /// Validates the invariants of the tree (used by tests).
    ///
    /// Beyond the Ball-Tree invariants (range partition, leaf size, ball containment,
    /// permutation; sibling centers need not be adjacent), this checks the
    /// BC-Tree-specific ones: cached center norms, leaf points sorted by descending
    /// `r_x`, the cone decomposition satisfying `x_cos² + x_sin² = ‖x‖²`, and the
    /// Pythagorean relation of Figure 4, `x_sin² + (‖c‖ − x_cos)² = r_x²`.
    pub fn check_invariants(&self) -> Result<()> {
        self.tree.check_invariants(false)?;
        for (node_idx, node) in self.tree.nodes.iter().enumerate() {
            let center = self.tree.center(node);
            let center_norm = self.center_norms[node_idx];
            if (distance::norm(center) - center_norm).abs() > 1e-3 * (1.0 + center_norm) {
                return Err(invalid("cached center norm is stale".into()));
            }
            if !node.is_leaf() {
                continue;
            }
            let mut prev_r = Scalar::INFINITY;
            for pos in node.start..node.end {
                let x = self.tree.points.point(pos as usize);
                let aux = self.aux[pos as usize];
                let r = distance::euclidean(x, center);
                let tol = 1e-2 * (1.0 + r);
                if (r - aux.radius).abs() > tol {
                    return Err(invalid(format!("stored r_x {} != recomputed {r}", aux.radius)));
                }
                if aux.radius > prev_r + tol {
                    return Err(invalid("leaf points are not sorted by descending r_x".into()));
                }
                prev_r = aux.radius;
                let x_norm = distance::norm(x);
                if (aux.x_cos * aux.x_cos + aux.x_sin * aux.x_sin - x_norm * x_norm).abs()
                    > 1e-2 * (1.0 + x_norm * x_norm)
                {
                    return Err(invalid("cone decomposition does not reconstruct ‖x‖²".into()));
                }
                let pythagoras =
                    aux.x_sin * aux.x_sin + (center_norm - aux.x_cos) * (center_norm - aux.x_cos);
                if (pythagoras - aux.radius * aux.radius).abs()
                    > 5e-2 * (1.0 + aux.radius * aux.radius)
                {
                    return Err(invalid(format!(
                        "Figure-4 Pythagorean relation violated: {pythagoras} vs r_x² {}",
                        aux.radius * aux.radius
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_data::{DataDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize) -> PointSet {
        SyntheticDataset::new(
            "tree-parts",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.2 },
            19,
        )
        .generate()
        .unwrap()
    }

    #[test]
    fn ball_tree_from_parts_round_trips_and_validates() {
        let ps = dataset(1_200, 8);
        let tree = BallTreeBuilder::new(32).with_seed(3).build(&ps).unwrap();
        let parts = |ids: &[u32], nodes: &[Node], centers: &[Scalar]| {
            BallTree::from_parts(
                tree.points().clone(),
                ids.to_vec(),
                nodes.to_vec(),
                centers.to_vec(),
                tree.leaf_size(),
                tree.build_seed(),
            )
        };
        let rebuilt = parts(tree.original_ids(), tree.nodes(), tree.centers()).unwrap();
        assert_eq!(rebuilt.nodes(), tree.nodes());
        assert_eq!(rebuilt.centers(), tree.centers());
        assert_eq!(rebuilt.original_ids(), tree.original_ids());
        assert_eq!(rebuilt.build_seed(), 3);
        rebuilt.check_invariants().unwrap();

        // Inconsistent arrays are rejected with typed errors, never panics.
        let truncated_ids = &tree.original_ids()[..10];
        assert!(matches!(
            parts(truncated_ids, tree.nodes(), tree.centers()),
            Err(Error::Corrupt(_))
        ));
        let mut bad_nodes = tree.nodes().to_vec();
        bad_nodes[0].left = u32::MAX - 1;
        assert!(matches!(
            parts(tree.original_ids(), &bad_nodes, tree.centers()),
            Err(Error::Corrupt(_))
        ));
        let short_centers = &tree.centers()[..tree.centers().len() - 1];
        assert!(matches!(
            parts(tree.original_ids(), tree.nodes(), short_centers),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn bc_tree_from_parts_round_trips_and_validates() {
        let ps = dataset(1_400, 10);
        let tree = BcTreeBuilder::new(40).with_seed(6).build(&ps).unwrap();
        let parts = BcTreeParts {
            points: tree.points().clone(),
            original_ids: tree.original_ids().to_vec().into(),
            nodes: tree.nodes().to_vec(),
            centers: tree.centers().to_vec().into(),
            center_norms: tree.center_norms().to_vec().into(),
            aux: tree.leaf_aux().to_vec(),
            leaf_size: tree.leaf_size(),
            build_seed: tree.build_seed(),
        };
        let rebuilt = BcTree::from_parts(parts.clone()).unwrap();
        assert_eq!(rebuilt.nodes(), tree.nodes());
        assert_eq!(rebuilt.leaf_aux(), tree.leaf_aux());
        assert_eq!(rebuilt.build_seed(), 6);
        rebuilt.check_invariants().unwrap();

        let mut bad = parts.clone();
        let mut norms = bad.center_norms.to_vec();
        norms.pop();
        bad.center_norms = norms.into();
        assert!(matches!(BcTree::from_parts(bad), Err(Error::Corrupt(_))));
        let mut bad = parts.clone();
        bad.aux.truncate(10);
        assert!(matches!(BcTree::from_parts(bad), Err(Error::Corrupt(_))));
        let mut bad = parts.clone();
        let mut ids = bad.original_ids.to_vec();
        ids[0] = ids[1];
        bad.original_ids = ids.into();
        assert!(matches!(BcTree::from_parts(bad), Err(Error::Corrupt(_))));
        let mut bad = parts;
        bad.nodes[0].end = 7;
        assert!(matches!(BcTree::from_parts(bad), Err(Error::Corrupt(_))));
    }
}
