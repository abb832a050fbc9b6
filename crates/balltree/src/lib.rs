//! # p2h-balltree
//!
//! The Ball-Tree index for point-to-hyperplane nearest neighbor search, implementing
//! Section III of "Lightweight-Yet-Efficient: Revitalizing Ball-Tree for
//! Point-to-Hyperplane Nearest Neighbor Search" (Huang & Tung, ICDE 2023).
//!
//! A Ball-Tree is a binary space-partition tree in which every node stores only the
//! centroid and radius of the points it covers. This crate provides:
//!
//! * [`BallTreeBuilder`] / [`BallTree`] — construction (Algorithms 1–2) and the
//!   branch-and-bound search (Algorithm 3) driven by the node-level ball bound
//!   (Theorem 2),
//! * [`split`] — the seed-grow splitting rule, shared with the BC-Tree crate,
//! * [`bound::node_ball_bound`] — the lower bound itself, exposed for reuse and testing,
//! * [`traverse`] — the one explicit-stack traversal loop that this crate and the
//!   BC-Tree crate both search with, for a single query or a group sharing the descent,
//! * exact and approximate (candidate-budget-limited) top-k queries with either the
//!   center or the lower-bound branch preference.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bound;
mod build;
mod node;
#[cfg(feature = "parallel")]
pub mod parallel;
mod search;
pub mod split;
pub mod traverse;

pub use build::{BallTree, BallTreeBuilder, DEFAULT_LEAF_SIZE};
pub use node::{validate_permutation, validate_structure, Node, NO_CHILD};
