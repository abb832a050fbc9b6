//! # p2h-balltree
//!
//! The Ball-Tree and BC-Tree indexes for point-to-hyperplane nearest neighbor search,
//! implementing Sections III and IV of "Lightweight-Yet-Efficient: Revitalizing
//! Ball-Tree for Point-to-Hyperplane Nearest Neighbor Search" (Huang & Tung, ICDE 2023).
//!
//! **Ball-Tree (Section III).** A binary space-partition tree in which every node stores
//! only the center and radius of the points it covers. [`BallTree`] answers exact and
//! approximate (candidate-budget-limited) top-k queries by branch and bound
//! (Algorithm 3), pruning with the node-level ball bound of Theorem 2
//! ([`bound::node_ball_bound`]) and descending first into the child its branch
//! preference picks.
//!
//! **BC-Tree (Section IV).** The same tree whose leaves also keep a **B**all and a
//! **C**one structure for every point ([`LeafPointAux`]):
//!
//! * the ball structure is the point's distance `r_x = ‖x − c‖` to the leaf center,
//!   enabling the point-level ball bound (Corollary 1) and, because leaf points are
//!   sorted by descending `r_x`, *batch* pruning of whole suffixes of a leaf;
//! * the cone structure is the pair `(‖x‖·cos φ_x, ‖x‖·sin φ_x)` where `φ_x` is the angle
//!   between the point and the leaf center, enabling the tighter point-level cone bound
//!   (Theorem 3).
//!
//! [`BcTree`] holds the Ball-Tree's arrays plus these structures and the center norms,
//! and spends one O(d) inner product per expanded internal node instead of two
//! (collaborative inner-product computing, Lemmas 1–2). The point-level bounds are in
//! [`bounds`]; [`BcTreeVariant`] selects the ablation variants of Figure 8
//! (BC-Tree-wo-B / -wo-C / -wo-BC). Both trees search with one explicit-stack loop,
//! for a single query or for a group of exact queries sharing the descent.
//!
//! **One builder.** [`BallTreeBuilder`] and [`BcTreeBuilder`] run the same recursion:
//! seed-grow splits (Algorithm 2), leaves sorted by descending `r_x`, and internal
//! centers combined from their children's (Lemma 1). The Ball-Tree then stores sibling
//! centers in adjacent rows; the BC-Tree adds its leaf structures. Built from one
//! `(seed, leaf_size)`, the two kinds hold the same permutation and node ranges.
//!
//! **Determinism.** Each split's RNG is seeded from the builder seed and the subtree's
//! position and size, so a given `(seed, leaf_size)` gives one tree for every thread
//! count: `build(points)` equals `build_parallel(points, t)` array for array.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bc_search;
pub mod bound;
pub mod bounds;
mod build;
mod node;
mod search;
mod split;
mod traverse;
mod tree;

pub use bc_search::{BcTreeVariant, BcTreeVariantView};
pub use build::{BallTreeBuilder, BcTreeBuilder, DEFAULT_LEAF_SIZE};
pub use node::{Node, NO_CHILD};
pub use tree::{BallTree, BcTree, BcTreeParts, LeafPointAux};
