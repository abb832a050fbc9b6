//! # p2h-store
//!
//! Persistent index snapshots for the P2HNNS workspace: the expensive offline build
//! (Ball-Tree / BC-Tree construction) is paid once, snapshotted to disk, and restored
//! by serving processes without rebuilding.
//!
//! The crate provides three layers:
//!
//! * a **container format** ([`format`]) — a versioned binary file (magic `P2HS`,
//!   format version, index-kind tag) holding checksummed sections for the point set,
//!   the tree arrays, and build metadata; every malformed input maps to a typed
//!   [`StoreError`], never a panic (see `docs/SNAPSHOT_FORMAT.md` for the byte layout),
//! * the [`Snapshot`] trait — implemented by [`p2h_balltree::BallTree`],
//!   [`p2h_balltree::BcTree`] and [`p2h_core::LinearScan`], the three kinds the
//!   serving tiers load (the NH/FH hashing baselines are offline comparisons and are
//!   not persisted; their old kind tags are refused on load); arrays are stored
//!   verbatim, so a loaded index returns **bit-identical** search results to the
//!   original on the same kernel backend. A save streams those arrays from the index
//!   itself (straight from memory where they already are their encoding, else through
//!   one [`format::WRITE_CHUNK`] buffer) and never copies its payload,
//! * a directory-level [`Store`] — named snapshots plus a `MANIFEST` file, which is
//!   what `p2h_engine::IndexRegistry::open_dir` / `Engine::from_store` consume to
//!   cold-start a serving process. Besides single snapshots the manifest can register
//!   **shard groups** ([`Store::save_shard_group`] / [`Store::load_shard_group`]):
//!   one snapshot per shard plus a map file of id mappings, staged under fresh epoch
//!   file names and committed atomically through the manifest rename, so a crash
//!   mid-save never leaves a dangling or half-replaced entry. The `p2h-shard` crate
//!   builds its `ShardedIndex` persistence on this layer. The manifest also registers
//!   **live entries** ([`Store::commit_live`] / [`Store::live_entry`]): the id file,
//!   base snapshot, and CRC-framed WAL segments (module [`wal`]) behind a `p2h-live`
//!   mutable index, advanced epoch-by-epoch through the same atomic manifest rename.
//!
//! ## Quick start
//!
//! ```no_run
//! use p2h_store::{LoadMode, Snapshot, Store};
//! use p2h_balltree::{BallTree, BallTreeBuilder};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let points = p2h_core::PointSet::augment(&[vec![0.0, 1.0], vec![2.0, 3.0]])?;
//! // Offline: build once, snapshot to a store directory.
//! let tree = BallTreeBuilder::new(100).build(&points)?;
//! let store = Store::create("indexes")?;
//! store.save("ball", &tree)?;
//!
//! // Serving: restore by name — no rebuild, bit-identical answers.
//! let restored: BallTree = store.load("ball")?;
//!
//! // Zero-copy serving: memory-map the snapshots instead of copying them. The
//! // restored arrays are views into the mapping (format v2 keeps them 8-byte
//! // aligned); answers stay bit-identical and cold start is nearly free.
//! let mapped: BallTree = store.with_mode(LoadMode::Mmap).load("ball")?;
//! assert!(mapped.points().is_mapped());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// All unsafe code of the storage layer lives in the single `mmap` module (the raw
// mmap(2) externs and the checked [u8] → [f32]/[u32] casts); everything else is
// enforced safe.
#![deny(unsafe_code)]

mod crc32;
pub mod format;
mod live;
mod metrics;
#[allow(unsafe_code)]
mod mmap;
pub mod retry;
mod snapshot;
mod store;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_support;
pub mod wal;

pub use crc32::crc32;
pub use format::{
    IndexKind, SnapshotSource, StoreError, StoreResult, FORMAT_VERSION, FORMAT_VERSION_V1, MAGIC,
    SECTION_ALIGN,
};
pub use live::{live_base_file, live_ids_file, live_wal_file, LiveIdsSnapshot};
pub use mmap::{LoadMode, MmapRegion};
pub use retry::{retry_interrupted, MAX_EINTR_ATTEMPTS};
pub use snapshot::{snapshot_meta, Snapshot, SnapshotMeta};
pub use store::{
    LiveEntryFiles, LoadedIndex, ShardGroup, ShardGroupMeta, Store, StoreEntry, MANIFEST_FILE,
    SNAPSHOT_EXT, SWEEP_GRACE,
};
pub use wal::{replay_wal, WalHeader, WalOp, WalReplay, WalWriter};
