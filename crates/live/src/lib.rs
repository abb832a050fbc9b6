//! # p2h-live
//!
//! Online updates for point-to-hyperplane nearest neighbor search: a **mutable live
//! tier** over the workspace's immutable snapshot indexes.
//!
//! The paper's workload is interactive — active learning labels the points nearest
//! the current decision hyperplane, retrains, and queries again — but every index in
//! the workspace is built offline and frozen. This crate closes that loop with an
//! LSM-style layering:
//!
//! * a **memtable** of recent inserts (scanned linearly through the same dispatched
//!   kernels as every other index) plus a tombstone set for deletes, layered over
//! * an immutable **base snapshot** (a compacted Ball-Tree, loaded copy or
//!   zero-copy like any other snapshot), with
//! * a CRC-framed **write-ahead log** making every mutation durable before it is
//!   acknowledged ([`p2h_store::wal`]), and
//! * a **compactor** ([`LiveIndex::compact`]) that folds memtable + base into a
//!   freshly built tree and commits it as a new store epoch through the manifest's
//!   atomic rename — serving continues throughout.
//!
//! Layered answers are **bit-identical** to a full rebuild containing the same live
//! points (same kernel backend): the memtable scan is exact by construction, base
//! results translate through a strictly increasing id mapping (order-preserving, so
//! every tie-break survives), and the final merge is the same total-order
//! [`p2h_core::merge_topk`] shard fan-out uses. See [`search`](crate::LiveIndex::search)
//! and `docs/ONLINE_UPDATES.md`.
//!
//! ## Quick start
//!
//! ```no_run
//! use p2h_live::LiveIndex;
//! use p2h_store::Store;
//! use p2h_core::HyperplaneQuery;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let store = Store::create("indexes")?;
//! // Augmented dimensionality 3 = raw 2-dimensional points.
//! let live = LiveIndex::create(&store, "stream", 3)?;
//!
//! // Mutations are durable when they return: framed, appended, fsynced.
//! let id = live.insert(&[0.5, 1.5])?;
//! live.insert(&[2.0, -1.0])?;
//! live.delete(id)?;
//!
//! // Serve exactly — bit-identical to an offline rebuild over the live points.
//! let query = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -1.0)?;
//! let result = live.search_exact(&query, 1)?;
//! assert_eq!(result.neighbors.len(), 1);
//!
//! // Fold the memtable into a compacted Ball-Tree base (new store epoch).
//! live.compact()?;
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod compact;
mod error;
mod index;
mod metrics;
mod policy;
mod search;

pub use compact::{CompactionReport, CompactionTrigger};
pub use error::{LiveError, LiveResult};
pub use index::LiveIndex;
pub use policy::{CompactionPolicy, Compactor};
pub use search::LiveView;
