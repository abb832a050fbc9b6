//! Epoch compaction: fold the memtable and the old base into a freshly built
//! Ball-Tree and commit it as a new store epoch, without stopping serving.
//!
//! Three phases, two of them under the write lock:
//!
//! 1. **Freeze** (write lock) — create the next epoch's WAL segment, commit the
//!    manifest to reference it *alongside* the old files (so every append from this
//!    instant is durable under a manifest-referenced segment), roll the active
//!    writer over, push a fresh active layer, and snapshot the survivors (base minus
//!    tombstones, plus the frozen layers' live rows) in global-id order.
//! 2. **Build** (no lock) — construct a Ball-Tree over the survivors, stage it and
//!    the new id file durably. Inserts, deletes, and searches proceed concurrently;
//!    deletes that hit frozen points are tracked so they can be re-applied to the
//!    new base.
//! 3. **Commit** (write lock) — atomically swap the manifest to the new epoch's
//!    files, install the new base in memory, re-apply the tracked tombstones, and
//!    drop the frozen layers. Only this commit reclaims the superseded WAL segments
//!    and epoch files — a crash at any earlier instant leaves the old epoch fully
//!    replayable.
//!
//! A crash mid-compaction is recovered by [`crate::LiveIndex::open`]: the manifest
//! references either the old epoch (with one or two WAL segments — both are
//! replayed in order) or the new one; either way exactly the acknowledged
//! operations come back. A *failed* (non-crashing) compaction clears its marker and
//! leaves the index serving the old epoch with the extra segment still referenced;
//! a retry simply advances to the next epoch number.

use std::fs;
use std::time::Instant;

use p2h_balltree::{BallTreeBuilder, DEFAULT_LEAF_SIZE};
use p2h_core::{PointSet, Scalar, VecBuf};
use p2h_store::{
    live_base_file, live_ids_file, live_wal_file, LiveEntryFiles, LiveIdsSnapshot, LoadedIndex,
    WalHeader, WalWriter,
};

use crate::error::{LiveError, LiveResult};
use crate::index::{CompactionPending, Layer, LiveIndex, Tombstones};

/// What caused a compaction to run — the `trigger` label on
/// `p2h_live_compactions_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionTrigger {
    /// An explicit [`LiveIndex::compact`] call.
    Manual,
    /// The background policy fired because the memtable crossed its point threshold.
    Size,
    /// The background policy fired because too much time passed since the last
    /// compaction while mutations were pending.
    Time,
}

impl CompactionTrigger {
    /// The stable label value.
    pub fn as_str(self) -> &'static str {
        match self {
            CompactionTrigger::Manual => "manual",
            CompactionTrigger::Size => "size",
            CompactionTrigger::Time => "time",
        }
    }
}

/// What a completed compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The committed store epoch.
    pub epoch: u64,
    /// Points in the new base (live points at the freeze instant).
    pub survivors: usize,
    /// Memtable rows folded into the base (live frozen-layer rows).
    pub folded_rows: usize,
    /// End-to-end wall time in nanoseconds.
    pub wall_ns: u64,
}

/// The survivor snapshot the freeze phase hands to the lock-free build phase.
struct Frozen {
    new_epoch: u64,
    dim: usize,
    freeze_next_id: u32,
    new_wal_name: String,
    ids: Vec<u32>,
    flat: VecBuf<Scalar>,
    folded_rows: usize,
}

impl LiveIndex {
    /// Runs one full compaction. Serving, inserts, and deletes continue
    /// concurrently; answers are bit-identical before, during, and after.
    ///
    /// # Errors
    ///
    /// [`LiveError::CompactionInProgress`] when another compaction is running;
    /// [`LiveError::Store`] / [`LiveError::Core`] on staging or build failure — the
    /// index keeps serving the old epoch and a retry starts a fresh attempt.
    pub fn compact(&self) -> LiveResult<CompactionReport> {
        self.compact_triggered(CompactionTrigger::Manual)
    }

    /// [`LiveIndex::compact`] with an explicit [`CompactionTrigger`] — what the
    /// background policy ([`crate::CompactionPolicy`]) calls, so the
    /// `p2h_live_compactions_total{trigger=…}` counters attribute each compaction to
    /// its cause. The compaction itself is identical regardless of trigger.
    pub fn compact_triggered(&self, trigger: CompactionTrigger) -> LiveResult<CompactionReport> {
        let wall_start = Instant::now();
        let freeze_start = Instant::now();
        let frozen = self.freeze_phase()?;
        self.metrics.phase_freeze_ns.record(freeze_start.elapsed().as_nanos() as u64);
        match self.build_and_commit(frozen, wall_start, trigger) {
            Ok(report) => Ok(report),
            Err(e) => {
                // Abandon the attempt but keep a consistent serving state: appends
                // already target the new segment (which the manifest references), and
                // the frozen layers simply stay searchable until a retry succeeds.
                self.write_state().compaction = None;
                Err(e)
            }
        }
    }

    /// Whether a compaction is currently running.
    pub fn is_compacting(&self) -> bool {
        self.read_state().compaction.is_some()
    }

    fn freeze_phase(&self) -> LiveResult<Frozen> {
        let mut state = self.write_state();
        if state.compaction.is_some() {
            return Err(LiveError::CompactionInProgress);
        }
        let dim = state.dim;
        let new_epoch = state.wal_epoch + 1;
        let new_wal_name = live_wal_file(self.name(), new_epoch);
        let new_wal_path = self.store().live_path(&new_wal_name)?;
        // A previous attempt that crashed after creating the segment left an
        // unreferenced file; clear it so the no-clobber create starts clean.
        let _ = fs::remove_file(&new_wal_path);
        let header = WalHeader { epoch: new_epoch, dim, first_id: state.next_id };
        let wal = WalWriter::create(&new_wal_path, header)?;
        let mut files = state.files.clone();
        files.wal_files.push(new_wal_name.clone());
        // Commit the segment into the manifest *before* any append can land in it:
        // an acknowledged write must never live only in an unreferenced file.
        self.store().commit_live(self.name(), &files)?;
        state.wal = wal;
        state.files = files;
        state.wal_epoch = new_epoch;
        let freeze_next_id = state.next_id;
        state.layers.push(Layer::empty(freeze_next_id));
        state.compaction = Some(CompactionPending { freeze_next_id, tombs: Vec::new() });

        // Snapshot the survivors in ascending global-id order: base points (whose
        // ids all precede the memtable's) minus tombstones, then each frozen
        // layer's live rows. The rows are written in place into their own pages.
        let survivors = state.live_len();
        let mut ids = Vec::with_capacity(survivors);
        let mut folded_rows = 0usize;
        let flat = VecBuf::from_fn(survivors * dim, |flat| {
            let mut slots = flat.chunks_exact_mut(dim);
            let mut push = |id: u32, row: &[Scalar]| {
                ids.push(id);
                slots.next().expect("live_len counts every survivor").copy_from_slice(row);
            };
            if let Some(base) = &state.base {
                let rows = base_rows(base);
                for (pos, &id) in state.base_ids.iter().enumerate() {
                    if !state.base_tombs.contains(pos) {
                        push(id, rows.row(pos));
                    }
                }
            }
            let frozen_layers = state.layers.len() - 1;
            for layer in &state.layers[..frozen_layers] {
                for row in layer.live() {
                    push(layer.start_id + row as u32, &layer.flat[row * dim..(row + 1) * dim]);
                    folded_rows += 1;
                }
            }
        });
        assert_eq!(ids.len(), survivors, "live_len counts every survivor");
        Ok(Frozen { new_epoch, dim, freeze_next_id, new_wal_name, ids, flat, folded_rows })
    }

    fn build_and_commit(
        &self,
        frozen: Frozen,
        wall_start: Instant,
        trigger: CompactionTrigger,
    ) -> LiveResult<CompactionReport> {
        let build_start = Instant::now();
        let Frozen { new_epoch, dim, freeze_next_id, new_wal_name, ids, flat, folded_rows } =
            frozen;
        let tree = if ids.is_empty() {
            None
        } else {
            let points = PointSet::from_buf(dim, flat)?;
            Some(BallTreeBuilder::new(DEFAULT_LEAF_SIZE).with_seed(new_epoch).build(&points)?)
        };
        let new_base_name = match &tree {
            Some(tree) => {
                let name = live_base_file(self.name(), new_epoch);
                self.store().save_live_snapshot(&name, tree)?;
                Some(name)
            }
            None => None,
        };
        let new_ids_name = live_ids_file(self.name(), new_epoch);
        let ids_snapshot =
            LiveIdsSnapshot { epoch: new_epoch, dim, next_id: freeze_next_id, ids: ids.into() };
        self.store().save_live_ids(&new_ids_name, &ids_snapshot)?;
        self.metrics.phase_build_ns.record(build_start.elapsed().as_nanos() as u64);

        let commit_start = Instant::now();
        let files = LiveEntryFiles {
            ids_file: new_ids_name,
            base_file: new_base_name,
            wal_files: vec![new_wal_name],
        };
        let mut state = self.write_state();
        // The epoch swap: after this rename the superseded segments and epoch files
        // are unreferenced and get reclaimed (only now — never before the commit).
        self.store().commit_live(self.name(), &files)?;
        let pending = state.compaction.take().expect("freeze phase installed the marker");
        state.files = files;
        state.base = tree.map(LoadedIndex::BallTree);
        state.base_ids = ids_snapshot.ids;
        let mut new_tombs = Tombstones::with_positions(state.base_ids.len());
        for gid in &pending.tombs {
            let pos = state
                .base_ids
                .binary_search(gid)
                .expect("a point deleted mid-compaction survived the freeze snapshot");
            new_tombs.insert(pos);
        }
        state.base_tombs = new_tombs;
        let active = state.layers.pop().expect("freeze phase pushed the active layer");
        state.layers = vec![active];
        let survivors = state.base_ids.len();
        self.metrics.phase_commit_ns.record(commit_start.elapsed().as_nanos() as u64);
        let wall_ns = wall_start.elapsed().as_nanos() as u64;
        self.metrics.compaction_wall_ns.record(wall_ns);
        self.metrics.compactions_for(trigger).inc();
        self.metrics.epoch_swaps.inc();
        self.publish_gauges(&state);
        Ok(CompactionReport { epoch: new_epoch, survivors, folded_rows, wall_ns })
    }
}

/// Uniform original-order row access over any base index kind. Tree snapshots store
/// their points reordered; `original_ids` inverts that back to the order the id file
/// maps.
pub(crate) struct BaseRows<'a> {
    points: &'a PointSet,
    /// `perm[original_pos]` = storage position; empty when storage order *is*
    /// original order.
    perm: Vec<u32>,
}

impl BaseRows<'_> {
    pub fn row(&self, original_pos: usize) -> &[Scalar] {
        let storage =
            if self.perm.is_empty() { original_pos } else { self.perm[original_pos] as usize };
        self.points.flat_range(storage, storage + 1)
    }
}

pub(crate) fn base_rows(base: &LoadedIndex) -> BaseRows<'_> {
    let (points, original_ids): (&PointSet, Option<&[u32]>) = match base {
        LoadedIndex::LinearScan(index) => (index.points(), None),
        LoadedIndex::BallTree(index) => (index.points(), Some(index.original_ids())),
        LoadedIndex::BcTree(index) => (index.points(), Some(index.original_ids())),
    };
    let perm = match original_ids {
        None => Vec::new(),
        Some(ids) => {
            let mut perm = vec![0u32; ids.len()];
            for (storage, &original) in ids.iter().enumerate() {
                perm[original as usize] = storage as u32;
            }
            perm
        }
    };
    BaseRows { points, perm }
}
