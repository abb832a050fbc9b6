//! The mutable live index: state layout, durable open/create, and the insert/delete
//! paths. Layered search lives in [`crate::search`], compaction in
//! [`crate::compact`].

use std::fs;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use p2h_core::{is_excluded, kernels, Error, Scalar, VecBuf};
use p2h_store::{
    live_ids_file, live_wal_file, replay_wal, LiveEntryFiles, LiveIdsSnapshot, LoadedIndex, Store,
    StoreError, StoreResult, WalHeader, WalOp, WalWriter,
};

use crate::error::{LiveError, LiveResult};
use crate::metrics::LiveMetrics;

/// The deleted positions of one tier — base positions, or a memtable layer's rows — as
/// a bitset plus its population: bit `p % 64` of word `p / 64` is set once position `p`
/// is deleted. Word `w` covers the strip of rows `64w .. 64w + 64`, and the words are
/// what [`p2h_core::P2hIndex::search_group_excluding`] reads, so a search never
/// rebuilds them.
#[derive(Debug, Default)]
pub(crate) struct Tombstones {
    words: Vec<u64>,
    count: usize,
}

impl Tombstones {
    /// Room for `positions` positions, none deleted.
    pub fn with_positions(positions: usize) -> Self {
        Self { words: vec![0; positions.div_ceil(64)], count: 0 }
    }

    /// Makes room for `positions` positions; the new ones are not deleted.
    fn grow_to(&mut self, positions: usize) {
        self.words.resize(positions.div_ceil(64), 0);
    }

    /// Marks `pos` deleted; returns whether it was live.
    pub fn insert(&mut self, pos: usize) -> bool {
        let bit = 1 << (pos % 64);
        let word = &mut self.words[pos / 64];
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.count += 1;
        true
    }

    pub fn contains(&self, pos: usize) -> bool {
        is_excluded(&self.words, pos)
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The deleted positions, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || (rest != 0).then(|| 64 * w + kernels::pop_row(&mut rest)))
        })
    }
}

/// One contiguous run of recently inserted rows: ids `start_id .. start_id + rows`,
/// stored flat in insertion (= id) order. Normally there is exactly one layer; a
/// second, frozen one exists only while a compaction is folding it into a new base.
#[derive(Debug)]
pub(crate) struct Layer {
    pub start_id: u32,
    pub rows: usize,
    /// Row-major augmented points, `rows * dim` scalars.
    pub flat: Vec<Scalar>,
    /// Deleted rows (they keep their slot so ids stay positional).
    pub tombs: Tombstones,
}

impl Layer {
    pub fn empty(start_id: u32) -> Self {
        Self { start_id, rows: 0, flat: Vec::new(), tombs: Tombstones::default() }
    }

    pub fn contains(&self, id: u32) -> bool {
        id >= self.start_id && ((id - self.start_id) as usize) < self.rows
    }

    pub fn is_live(&self, id: u32) -> bool {
        self.contains(id) && !self.tombs.contains((id - self.start_id) as usize)
    }

    pub fn push(&mut self, point: &[Scalar]) {
        self.flat.extend_from_slice(point);
        self.rows += 1;
        self.tombs.grow_to(self.rows);
    }

    /// Tombstones a contained row; returns whether it was live.
    pub fn delete(&mut self, id: u32) -> bool {
        self.tombs.insert((id - self.start_id) as usize)
    }

    pub fn live_rows(&self) -> usize {
        self.rows - self.tombs.len()
    }

    /// The live rows, ascending.
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).filter(|&row| !self.tombs.contains(row))
    }
}

/// Bookkeeping alive only while a compaction runs: the id boundary the survivor
/// snapshot was frozen at, and every id below it deleted since the freeze (those
/// points are in the new base being built, so the tombstones must be re-applied to
/// it at the epoch swap).
#[derive(Debug)]
pub(crate) struct CompactionPending {
    pub freeze_next_id: u32,
    pub tombs: Vec<u32>,
}

/// Everything behind the index's `RwLock`.
#[derive(Debug)]
pub(crate) struct LiveState {
    pub dim: usize,
    /// Epoch of the active WAL segment (≥ the committed base epoch; they differ only
    /// mid-compaction).
    pub wal_epoch: u64,
    pub next_id: u32,
    pub base: Option<LoadedIndex>,
    /// Strictly increasing global ids, one per base point in base (original) order.
    pub base_ids: VecBuf<u32>,
    /// Base-local positions masked by a delete.
    pub base_tombs: Tombstones,
    /// Memtable layers, oldest first; the last one is the active (appendable) layer.
    pub layers: Vec<Layer>,
    pub wal: WalWriter,
    pub files: LiveEntryFiles,
    pub compaction: Option<CompactionPending>,
}

impl LiveState {
    pub fn live_len(&self) -> usize {
        self.base_ids.len() - self.base_tombs.len() + self.memtable_rows()
    }

    pub fn memtable_rows(&self) -> usize {
        self.layers.iter().map(Layer::live_rows).sum()
    }

    pub fn tombstones(&self) -> usize {
        self.base_tombs.len() + self.layers.iter().map(|l| l.tombs.len()).sum::<usize>()
    }
}

/// Where a live id resolves to.
enum Target {
    Layer(usize),
    Base(u32),
}

/// A mutable point-to-hyperplane index: a memtable of recent inserts (plus a
/// tombstone set for deletes) layered over an immutable compacted base snapshot.
///
/// * **Exact by construction** — the memtable is scanned linearly through the same
///   dispatched kernels as every other index, and layered answers are merged under
///   the workspace's total `Neighbor` order, so results are **bit-identical** to a
///   full rebuild containing the same live points (same kernel backend).
/// * **Durable** — every insert/delete is framed, appended, and fsynced to a
///   CRC-framed WAL segment *before* it is acknowledged; replay on open recovers
///   exactly the acknowledged prefix (see [`p2h_store::wal`]).
/// * **Compactable** — [`LiveIndex::compact`] folds the memtable and the old base
///   into a freshly built Ball-Tree and commits it as a new store epoch through the
///   manifest's atomic rename; serving continues throughout, and superseded WAL
///   segments are reclaimed only after the commit.
///
/// All methods take `&self`: the index is `Send + Sync` and can serve searches from
/// many threads while another inserts, deletes, or compacts. See
/// `docs/ONLINE_UPDATES.md` for the full API and durability contract.
#[derive(Debug)]
pub struct LiveIndex {
    name: String,
    store: Store,
    pub(crate) state: RwLock<LiveState>,
    pub(crate) metrics: LiveMetrics,
}

impl LiveIndex {
    /// Creates a new, empty live entry named `name` in `store` with the given
    /// **augmented** dimensionality (raw dimensionality + 1; the index augments
    /// inserted points itself), stages its epoch-0 id file and WAL segment durably,
    /// and commits the entry through the manifest.
    ///
    /// # Errors
    ///
    /// [`StoreError::Invalid`] for `dim < 2`; a manifest error if `name` is already
    /// taken (live entries are never silently clobbered); any I/O failure.
    pub fn create(store: &Store, name: &str, dim: usize) -> StoreResult<Self> {
        if dim < 2 {
            return Err(StoreError::Invalid(Error::InvalidDimension(dim)));
        }
        match store.live_entry(name) {
            Err(StoreError::MissingEntry(_)) => {}
            Err(other) => return Err(other),
            Ok(_) => {
                return Err(StoreError::Invalid(Error::InvalidParameter {
                    name: "name",
                    message: format!("live entry `{name}` already exists (open it instead)"),
                }));
            }
        }
        let ids_file = live_ids_file(name, 0);
        let wal_file = live_wal_file(name, 0);
        store.save_live_ids(
            &ids_file,
            &LiveIdsSnapshot { epoch: 0, dim, next_id: 0, ids: Vec::new().into() },
        )?;
        let wal_path = store.live_path(&wal_file)?;
        // A create that crashed after staging leaves an unreferenced segment behind;
        // clear it so the no-clobber create below starts from a clean slate.
        let _ = fs::remove_file(&wal_path);
        let wal = WalWriter::create(&wal_path, WalHeader { epoch: 0, dim, first_id: 0 })?;
        let files = LiveEntryFiles { ids_file, base_file: None, wal_files: vec![wal_file] };
        store.commit_live(name, &files)?;
        let metrics = LiveMetrics::for_index(name);
        let state = LiveState {
            dim,
            wal_epoch: 0,
            next_id: 0,
            base: None,
            base_ids: Vec::new().into(),
            base_tombs: Tombstones::default(),
            layers: vec![Layer::empty(0)],
            wal,
            files,
            compaction: None,
        };
        Ok(Self {
            name: name.to_string(),
            store: store.clone(),
            state: RwLock::new(state),
            metrics,
        })
    }

    /// Opens the live entry named `name`: loads the id file and base snapshot (under
    /// the store's [`p2h_store::LoadMode`]), replays every WAL segment in manifest
    /// order over them, truncates any torn tail, and reopens the last segment for
    /// appending. The recovered state contains exactly the acknowledged operations
    /// (an unacknowledged final batch may additionally survive if its write completed
    /// before the crash — standard WAL semantics).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from loading: missing entry, I/O, snapshot corruption, or
    /// [`StoreError::WalCorrupt`] when a segment is malformed beyond a torn tail or
    /// is inconsistent with the id file (wrong dimension, epoch, or id continuity).
    pub fn open(store: &Store, name: &str) -> StoreResult<Self> {
        let files = store.live_entry(name)?;
        let ids = store.load_live_ids(&files.ids_file)?;
        let base = match &files.base_file {
            Some(file) => Some(store.load_live_base(file)?),
            None => None,
        };
        if let Some(base) = &base {
            let index = base.as_index();
            if index.dim() != ids.dim {
                return Err(StoreError::Invalid(Error::Corrupt(format!(
                    "base snapshot dimension {} disagrees with the id file's {}",
                    index.dim(),
                    ids.dim
                ))));
            }
            if index.len() != ids.ids.len() {
                return Err(StoreError::Invalid(Error::Corrupt(format!(
                    "base snapshot holds {} points but the id file maps {}",
                    index.len(),
                    ids.ids.len()
                ))));
            }
        }
        let metrics = LiveMetrics::for_index(name);
        let mut layer = Layer::empty(ids.next_id);
        let mut base_tombs = Tombstones::with_positions(ids.ids.len());
        let mut next_id = ids.next_id;
        let mut wal_epoch = ids.epoch;
        let mut last_replay = None;
        for (ordinal, wal_file) in files.wal_files.iter().enumerate() {
            let replay = replay_wal(&store.live_path(wal_file)?)?;
            let corrupt = |message: String| StoreError::WalCorrupt { message };
            if replay.header.dim != ids.dim {
                return Err(corrupt(format!(
                    "segment `{wal_file}` has dimension {} but the id file says {}",
                    replay.header.dim, ids.dim
                )));
            }
            if ordinal == 0 && replay.header.epoch != ids.epoch {
                return Err(corrupt(format!(
                    "first segment `{wal_file}` is epoch {} but the id file is epoch {}",
                    replay.header.epoch, ids.epoch
                )));
            }
            if ordinal > 0 && replay.header.epoch <= wal_epoch {
                return Err(corrupt(format!(
                    "segment `{wal_file}` epoch {} does not advance past {wal_epoch}",
                    replay.header.epoch
                )));
            }
            if replay.header.first_id != next_id {
                return Err(corrupt(format!(
                    "segment `{wal_file}` starts at id {} but replay reached {next_id}",
                    replay.header.first_id
                )));
            }
            wal_epoch = replay.header.epoch;
            for op in &replay.ops {
                match op {
                    WalOp::Insert { point, .. } => {
                        layer.push(point);
                        next_id += 1;
                    }
                    WalOp::Delete { id } => {
                        apply_replayed_delete(*id, &ids, &mut base_tombs, &mut layer)?;
                    }
                }
            }
            metrics.wal_replayed_ops.add(replay.ops.len() as u64);
            last_replay = Some(replay);
        }
        let last_file = files.wal_files.last().expect("commit_live enforces ≥ 1 segment");
        let replay = last_replay.as_ref().expect("loop ran at least once");
        let wal = WalWriter::reopen(&store.live_path(last_file)?, replay)?;
        let state = LiveState {
            dim: ids.dim,
            wal_epoch,
            next_id,
            base,
            base_ids: ids.ids,
            base_tombs,
            layers: vec![layer],
            wal,
            files,
            compaction: None,
        };
        let index = Self {
            name: name.to_string(),
            store: store.clone(),
            state: RwLock::new(state),
            metrics,
        };
        index.publish_gauges(&index.read_state());
        Ok(index)
    }

    /// [`LiveIndex::open`] when the entry exists, [`LiveIndex::create`] otherwise.
    pub fn open_or_create(store: &Store, name: &str, dim: usize) -> StoreResult<Self> {
        match store.live_entry(name) {
            Ok(_) => Self::open(store, name),
            Err(StoreError::MissingEntry(_)) => Self::create(store, name, dim),
            Err(other) => Err(other),
        }
    }

    /// Inserts one **raw** point (the index appends the homogeneous coordinate 1
    /// itself) and returns its assigned global id. The insert is framed, appended,
    /// and fsynced to the WAL before this returns: an `Ok` is durable.
    ///
    /// # Errors
    ///
    /// [`LiveError::Core`] on a dimension mismatch (`raw.len()` must be the
    /// augmented dimension − 1) or an exhausted id space; [`LiveError::Store`] on
    /// WAL I/O failure (the memtable is left unchanged — an error means *not
    /// acknowledged*).
    pub fn insert(&self, raw: &[Scalar]) -> LiveResult<u32> {
        let ids = self.insert_rows(&[raw])?;
        Ok(ids[0])
    }

    /// Inserts a batch of raw points with **one** WAL append and one fsync, returning
    /// the assigned ids in order. Same contract as [`LiveIndex::insert`], and the
    /// whole batch is acknowledged atomically.
    pub fn insert_batch(&self, rows: &[Vec<Scalar>]) -> LiveResult<Vec<u32>> {
        let refs: Vec<&[Scalar]> = rows.iter().map(Vec::as_slice).collect();
        self.insert_rows(&refs)
    }

    fn insert_rows(&self, rows: &[&[Scalar]]) -> LiveResult<Vec<u32>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let mut state = self.write_state();
        let dim = state.dim;
        for row in rows {
            if row.len() + 1 != dim {
                return Err(
                    Error::DimensionMismatch { expected: dim - 1, actual: row.len() }.into()
                );
            }
        }
        if u64::from(state.next_id) + rows.len() as u64 > u64::from(u32::MAX) {
            return Err(Error::InvalidParameter {
                name: "rows",
                message: "global id space exhausted".into(),
            }
            .into());
        }
        let first = state.next_id;
        let ops: Vec<WalOp> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut point = Vec::with_capacity(dim);
                point.extend_from_slice(row);
                point.push(1.0);
                WalOp::Insert { id: first + i as u32, point }
            })
            .collect();
        // Acknowledgement point: append returns only after the fsync.
        let bytes = state.wal.append(&ops)?;
        for op in &ops {
            if let WalOp::Insert { point, .. } = op {
                state.layers.last_mut().expect("at least one layer").push(point);
            }
        }
        state.next_id = first + rows.len() as u32;
        self.metrics.inserts.add(rows.len() as u64);
        self.metrics.wal_appends.inc();
        self.metrics.wal_fsyncs.inc();
        self.metrics.wal_bytes.add(bytes);
        self.publish_gauges(&state);
        Ok((first..first + rows.len() as u32).collect())
    }

    /// Deletes the point with global id `id`. Liveness is checked first — a dead id
    /// is refused *before* anything reaches the log — then the delete is framed,
    /// fsynced, and applied. An `Ok` is durable.
    ///
    /// # Errors
    ///
    /// [`LiveError::NotFound`] when `id` was never assigned or is already deleted;
    /// [`LiveError::Store`] on WAL I/O failure (nothing applied).
    pub fn delete(&self, id: u32) -> LiveResult<()> {
        let mut state = self.write_state();
        let target = locate_live(&state, id).ok_or(LiveError::NotFound(id))?;
        let bytes = state.wal.append(&[WalOp::Delete { id }])?;
        match target {
            Target::Layer(ordinal) => {
                state.layers[ordinal].delete(id);
            }
            Target::Base(pos) => {
                state.base_tombs.insert(pos as usize);
            }
        }
        if let Some(pending) = &mut state.compaction {
            if id < pending.freeze_next_id {
                pending.tombs.push(id);
            }
        }
        self.metrics.deletes.inc();
        self.metrics.wal_appends.inc();
        self.metrics.wal_fsyncs.inc();
        self.metrics.wal_bytes.add(bytes);
        self.publish_gauges(&state);
        Ok(())
    }

    /// The entry name this index serves under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live points (base survivors + memtable rows, minus tombstones).
    pub fn len(&self) -> usize {
        self.read_state().live_len()
    }

    /// Whether the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Augmented point dimensionality (raw dimensionality + 1).
    pub fn dim(&self) -> usize {
        self.read_state().dim
    }

    /// The epoch of the active WAL segment (bumped by every compaction).
    pub fn epoch(&self) -> u64 {
        self.read_state().wal_epoch
    }

    /// The next global id an insert will be assigned.
    pub fn next_id(&self) -> u32 {
        self.read_state().next_id
    }

    /// Live rows currently held by the memtable (not yet compacted into a base).
    pub fn memtable_len(&self) -> usize {
        self.read_state().memtable_rows()
    }

    /// Whether the point with global id `id` is currently live.
    pub fn is_live(&self, id: u32) -> bool {
        locate_live(&self.read_state(), id).is_some()
    }

    /// The live `(id, augmented point)` pairs in ascending id order — the exact set a
    /// full rebuild would contain. Intended for tests and tooling, not the hot path.
    pub fn live_points(&self) -> Vec<(u32, Vec<Scalar>)> {
        let state = self.read_state();
        let dim = state.dim;
        let mut out = Vec::with_capacity(state.live_len());
        if let Some(base) = &state.base {
            let rows = crate::compact::base_rows(base);
            for (pos, &id) in state.base_ids.iter().enumerate() {
                if !state.base_tombs.contains(pos) {
                    out.push((id, rows.row(pos).to_vec()));
                }
            }
        }
        for layer in &state.layers {
            for row in layer.live() {
                out.push((
                    layer.start_id + row as u32,
                    layer.flat[row * dim..(row + 1) * dim].to_vec(),
                ));
            }
        }
        out
    }

    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, LiveState> {
        self.state.read().expect("live index lock poisoned")
    }

    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, LiveState> {
        self.state.write().expect("live index lock poisoned")
    }

    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    pub(crate) fn publish_gauges(&self, state: &LiveState) {
        self.metrics.memtable_points.set(state.memtable_rows() as u64);
        self.metrics.memtable_tombstones.set(state.tombstones() as u64);
    }
}

/// Resolves a live id to its location, or `None` when it is not live.
fn locate_live(state: &LiveState, id: u32) -> Option<Target> {
    for (ordinal, layer) in state.layers.iter().enumerate() {
        if layer.contains(id) {
            return layer.is_live(id).then_some(Target::Layer(ordinal));
        }
    }
    match state.base_ids.binary_search(&id) {
        Ok(pos) => {
            let pos = pos as u32;
            (!state.base_tombs.contains(pos as usize)).then_some(Target::Base(pos))
        }
        Err(_) => None,
    }
}

/// Applies one replayed delete. A valid writer history only logs deletes of live
/// ids, so a miss here is corruption, not a tombstone to ignore.
fn apply_replayed_delete(
    id: u32,
    ids: &LiveIdsSnapshot,
    base_tombs: &mut Tombstones,
    layer: &mut Layer,
) -> StoreResult<()> {
    if layer.contains(id) {
        if !layer.delete(id) {
            return Err(StoreError::WalCorrupt {
                message: format!(
                    "replayed delete of id {id}, which an earlier frame already deleted"
                ),
            });
        }
        return Ok(());
    }
    match ids.ids.binary_search(&id) {
        Ok(pos) => {
            if !base_tombs.insert(pos) {
                return Err(StoreError::WalCorrupt {
                    message: format!(
                        "replayed delete of id {id}, which an earlier frame already deleted"
                    ),
                });
            }
            Ok(())
        }
        Err(_) => Err(StoreError::WalCorrupt {
            message: format!("replayed delete of id {id}, which no live point carries"),
        }),
    }
}
