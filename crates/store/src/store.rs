//! A directory of named snapshots with a `MANIFEST` file: the on-disk unit a serving
//! process cold-starts from.
//!
//! Layout:
//!
//! ```text
//! <dir>/MANIFEST             text; first line `p2h-store 1`, then one line per entry:
//!                              <name>\t<file>                              (single index)
//!                              <name>\tshard-group\t<map>\t<s0>\t<s1>…     (sharded index)
//!                              <name>\tlive\t<ids>\t<base|->\t<w0>\t<w1>…  (live index)
//! <dir>/<name>.p2hs          one snapshot per single index
//! <dir>/<name>.g<E>.map.p2hs shard-group map file (epoch E): id mappings + metadata
//! <dir>/<name>.g<E>.s<K>.p2hs  shard K of group <name>, epoch E
//! <dir>/<name>.l<E>.ids.p2hs live-entry id file (epoch E): surviving global ids
//! <dir>/<name>.l<E>.base.p2hs  live-entry base snapshot, epoch E (absent when empty)
//! <dir>/<name>.l<E>.wal      live-entry write-ahead-log segment opened at epoch E
//! ```
//!
//! The manifest maps registry names to snapshot files; the index *kind* is not in the
//! manifest — it lives in each snapshot's header, where it is checksummed with the
//! rest. Saves go through temp-file + rename, so a crash mid-save leaves the previous
//! manifest and snapshot intact.
//!
//! Shard groups are **multi-file** saves, committed atomically through the manifest:
//! every file of a group save is written under a fresh *epoch* suffix (never reusing a
//! live file name), and only once all of them are durably in place is the manifest
//! swapped via its own tmp + rename. A crash at any intermediate point leaves the old
//! manifest referencing the old (complete) epoch: no manifest entry ever dangles and no
//! group is ever observed half-replaced. Files of superseded epochs are deleted
//! best-effort after the manifest commit; stray staged files from a crashed save are
//! ignored by readers (only the manifest names files) and reclaimed by the next
//! successful save of the same name. The store is a single-writer structure: concurrent
//! `save` calls from multiple processes can lose manifest updates (last rename wins).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use p2h_balltree::{BallTree, BcTree};
use p2h_core::{LinearScan, P2hIndex, VecBuf};

use crate::format::{
    io_error, IndexKind, SnapshotReader, SnapshotSource, SnapshotWriter, StoreError, StoreResult,
};
use crate::mmap::{LoadMode, SourceOwner};
use crate::snapshot::{stage_file, tags, Snapshot};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// File extension of snapshot files.
pub const SNAPSHOT_EXT: &str = "p2hs";

/// First line of every manifest.
const MANIFEST_HEADER: &str = "p2h-store 1";

/// Marker in the second column of a manifest line that introduces a shard group.
const GROUP_MARKER: &str = "shard-group";

/// Marker in the second column of a manifest line that introduces a live entry
/// (a `p2h-live` mutable index: id file, optional base snapshot, ≥ 1 WAL segment).
const LIVE_MARKER: &str = "live";

/// Placeholder in a live manifest line's base column when the entry has no base
/// snapshot (every point lives in the WAL-replayed memtable).
const LIVE_NO_BASE: &str = "-";

/// Default minimum age before the open-time sweep reclaims an unreferenced staged
/// file. A concurrent (single) writer stages its files seconds before the manifest
/// commit; the grace window keeps a racing reader's sweep from deleting them
/// mid-save, while crash leftovers — which persist indefinitely — age past it and are
/// reclaimed. Override per process with `P2H_SWEEP_GRACE_SECS`, or per handle with
/// [`Store::with_sweep_grace`].
pub const SWEEP_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

/// Resolves the sweep grace window from a `P2H_SWEEP_GRACE_SECS` value: whole
/// seconds, falling back to [`SWEEP_GRACE`] when absent or unparseable (a malformed
/// fleet-wide variable must not change sweep behavior silently to zero).
fn parse_sweep_grace(value: Option<&str>) -> std::time::Duration {
    value
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .map_or(SWEEP_GRACE, std::time::Duration::from_secs)
}

fn sweep_grace_from_env() -> std::time::Duration {
    parse_sweep_grace(std::env::var("P2H_SWEEP_GRACE_SECS").ok().as_deref())
}

/// One manifest entry: either a single snapshot file or a shard group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ManifestEntry {
    /// A single `<name>.p2hs` snapshot.
    Single(String),
    /// A shard group: the map file plus one snapshot file per shard, in ordinal order.
    Group { map_file: String, shard_files: Vec<String> },
    /// A live entry: id file, optional base snapshot, and the WAL segments to replay
    /// over it, in segment order. More than one WAL segment is the mid-compaction
    /// state: the next segment is committed *before* the epoch swap so acknowledged
    /// writes are never referenced only by an uncommitted file.
    Live { ids_file: String, base_file: Option<String>, wal_files: Vec<String> },
}

impl ManifestEntry {
    /// Every file this entry references (used for replaced-entry cleanup and for the
    /// sweep's live set — a referenced WAL segment must never be reclaimed).
    pub(crate) fn files(&self) -> Vec<&str> {
        match self {
            ManifestEntry::Single(file) => vec![file.as_str()],
            ManifestEntry::Group { map_file, shard_files } => {
                let mut files = Vec::with_capacity(shard_files.len() + 1);
                files.push(map_file.as_str());
                files.extend(shard_files.iter().map(String::as_str));
                files
            }
            ManifestEntry::Live { ids_file, base_file, wal_files } => {
                let mut files = Vec::with_capacity(wal_files.len() + 2);
                files.push(ids_file.as_str());
                files.extend(base_file.as_deref());
                files.extend(wal_files.iter().map(String::as_str));
                files
            }
        }
    }
}

/// The parsed name → entry mapping of a store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Sorted so renders (and therefore manifest diffs) are deterministic.
    pub(crate) entries: BTreeMap<String, ManifestEntry>,
}

impl Manifest {
    fn parse(text: &str) -> StoreResult<Self> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == MANIFEST_HEADER => {}
            Some((_, first)) => {
                return Err(StoreError::Manifest {
                    line: 1,
                    message: format!("expected header `{MANIFEST_HEADER}`, found `{first}`"),
                })
            }
            None => return Err(StoreError::Manifest { line: 0, message: "empty manifest".into() }),
        }
        let mut entries = BTreeMap::new();
        for (idx, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let entry = match fields.as_slice() {
                [name, file] => {
                    validate_name(name)?;
                    validate_file_column(file, idx + 1)?;
                    (name.to_string(), ManifestEntry::Single(file.to_string()))
                }
                [name, marker, map_file, shard_files @ ..]
                    if *marker == GROUP_MARKER && !shard_files.is_empty() =>
                {
                    validate_name(name)?;
                    validate_file_column(map_file, idx + 1)?;
                    for file in shard_files {
                        validate_file_column(file, idx + 1)?;
                    }
                    (
                        name.to_string(),
                        ManifestEntry::Group {
                            map_file: map_file.to_string(),
                            shard_files: shard_files.iter().map(|s| s.to_string()).collect(),
                        },
                    )
                }
                [name, marker, ids_file, base_file, wal_files @ ..]
                    if *marker == LIVE_MARKER && !wal_files.is_empty() =>
                {
                    validate_name(name)?;
                    validate_file_column(ids_file, idx + 1)?;
                    let base_file = if *base_file == LIVE_NO_BASE {
                        None
                    } else {
                        validate_file_column(base_file, idx + 1)?;
                        Some(base_file.to_string())
                    };
                    for file in wal_files {
                        validate_file_column(file, idx + 1)?;
                    }
                    (
                        name.to_string(),
                        ManifestEntry::Live {
                            ids_file: ids_file.to_string(),
                            base_file,
                            wal_files: wal_files.iter().map(|s| s.to_string()).collect(),
                        },
                    )
                }
                _ => {
                    return Err(StoreError::Manifest {
                        line: idx + 1,
                        message: format!(
                            "expected `<name>\\t<file>`, \
                             `<name>\\t{GROUP_MARKER}\\t<map>\\t<shard>…`, or \
                             `<name>\\t{LIVE_MARKER}\\t<ids>\\t<base|{LIVE_NO_BASE}>\\t<wal>…`, \
                             found `{line}`"
                        ),
                    })
                }
            };
            let (name, parsed) = entry;
            if entries.insert(name.clone(), parsed).is_some() {
                return Err(StoreError::Manifest {
                    line: idx + 1,
                    message: format!("duplicate entry for `{name}`"),
                });
            }
        }
        Ok(Self { entries })
    }

    fn render(&self) -> String {
        let mut out = String::from(MANIFEST_HEADER);
        out.push('\n');
        for (name, entry) in &self.entries {
            out.push_str(name);
            match entry {
                ManifestEntry::Single(file) => {
                    out.push('\t');
                    out.push_str(file);
                }
                ManifestEntry::Group { map_file, shard_files } => {
                    out.push('\t');
                    out.push_str(GROUP_MARKER);
                    out.push('\t');
                    out.push_str(map_file);
                    for file in shard_files {
                        out.push('\t');
                        out.push_str(file);
                    }
                }
                ManifestEntry::Live { ids_file, base_file, wal_files } => {
                    out.push('\t');
                    out.push_str(LIVE_MARKER);
                    out.push('\t');
                    out.push_str(ids_file);
                    out.push('\t');
                    out.push_str(base_file.as_deref().unwrap_or(LIVE_NO_BASE));
                    for file in wal_files {
                        out.push('\t');
                        out.push_str(file);
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Longest file name the store itself writes: a 100-char name plus the epoch/shard
/// suffix (`.g<epoch>.s<ordinal>.p2hs`); 60 bytes of headroom covers both counters.
const MAX_FILE_COMPONENT: usize = 160;

/// Whether `s` is a single safe path component: 1–`max_len` characters from
/// `[A-Za-z0-9._-]`, not starting with a dot (no hidden files, no `..`, no separators).
fn is_safe_file_component(s: &str, max_len: usize) -> bool {
    let valid_chars = s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    !s.is_empty() && s.len() <= max_len && valid_chars && !s.starts_with('.')
}

/// Validates a manifest file column. The file columns obey the same character rules as
/// names (a name plus extensions): a tampered manifest cannot point the loader at
/// hidden files, absolute paths, or anything outside the store directory.
pub(crate) fn validate_file_column(file: &str, line: usize) -> StoreResult<()> {
    if !is_safe_file_component(file, MAX_FILE_COMPONENT) {
        return Err(StoreError::Manifest {
            line,
            message: format!("invalid snapshot file name `{file}`"),
        });
    }
    Ok(())
}

/// Validates a registry name for use as a snapshot file stem: 1–100 characters from
/// `[A-Za-z0-9._-]`, not starting with a dot (no hidden files, no path traversal).
pub(crate) fn validate_name(name: &str) -> StoreResult<()> {
    if !is_safe_file_component(name, 100) {
        return Err(StoreError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// An index restored from a snapshot, tagged by its concrete type.
#[derive(Debug)]
pub enum LoadedIndex {
    /// A restored [`LinearScan`].
    LinearScan(LinearScan),
    /// A restored [`BallTree`].
    BallTree(BallTree),
    /// A restored [`BcTree`].
    BcTree(BcTree),
}

impl LoadedIndex {
    /// Which index kind this is.
    pub fn kind(&self) -> IndexKind {
        match self {
            LoadedIndex::LinearScan(_) => IndexKind::LinearScan,
            LoadedIndex::BallTree(_) => IndexKind::BallTree,
            LoadedIndex::BcTree(_) => IndexKind::BcTree,
        }
    }

    /// Erases the concrete type into a shared, searchable handle.
    pub fn into_shared(self) -> Arc<dyn P2hIndex> {
        match self {
            LoadedIndex::LinearScan(index) => Arc::new(index),
            LoadedIndex::BallTree(index) => Arc::new(index),
            LoadedIndex::BcTree(index) => Arc::new(index),
        }
    }

    /// Borrows the index through the search trait.
    pub fn as_index(&self) -> &dyn P2hIndex {
        match self {
            LoadedIndex::LinearScan(index) => index,
            LoadedIndex::BallTree(index) => index,
            LoadedIndex::BcTree(index) => index,
        }
    }

    /// Streams the held index as a snapshot into `out` (dispatching to the variant's
    /// [`Snapshot::write_snapshot`]).
    ///
    /// # Errors
    ///
    /// Whatever `out` returns.
    pub fn write_snapshot(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        match self {
            LoadedIndex::LinearScan(index) => index.write_snapshot(out),
            LoadedIndex::BallTree(index) => index.write_snapshot(out),
            LoadedIndex::BcTree(index) => index.write_snapshot(out),
        }
    }
}

/// The `GMET` metadata of a shard group, describing how the shards relate to the
/// original point set. The partitioner tag is opaque to the store — the `p2h-shard`
/// crate defines the tag values and restores its `Partitioner` from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGroupMeta {
    /// Opaque partitioner strategy tag (defined by `p2h-shard`).
    pub partitioner_tag: u32,
    /// Shard count the partitioner was asked for (the actual count may be smaller when
    /// empty shards were dropped).
    pub requested_shards: u64,
    /// Total number of points across every shard.
    pub total_count: usize,
    /// Augmented point dimensionality shared by every shard.
    pub dim: usize,
    /// RNG seed the sharded index was built with.
    pub build_seed: u64,
}

/// A fully loaded, structurally validated shard group: the restored per-shard indexes
/// plus the local-position → global-id mappings that tie them together.
#[derive(Debug)]
pub struct ShardGroup {
    /// Group metadata (partitioner, totals).
    pub meta: ShardGroupMeta,
    /// Per-shard id mappings: `id_maps[s][local] = global`. Strictly increasing per
    /// shard; a disjoint cover of `0..meta.total_count` across shards. Buffer-backed:
    /// under `LoadMode::Mmap` these are zero-copy windows into the map file.
    pub id_maps: Vec<VecBuf<u32>>,
    /// The restored shards, in ordinal order.
    pub shards: Vec<LoadedIndex>,
}

/// The file set of a live entry (a `p2h-live` mutable index), as recorded in the
/// manifest. The store hands these out without opening them: replaying the WAL
/// segments and layering the memtable over the base is `p2h-live`'s job
/// (`LiveIndex::open` consumes this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveEntryFiles {
    /// The id file (`<name>.l<E>.ids.p2hs`, kind [`IndexKind::LiveIds`]).
    pub ids_file: String,
    /// The base snapshot (`<name>.l<E>.base.p2hs`), absent when the entry has no
    /// compacted base (all points live in the WAL-replayed memtable).
    pub base_file: Option<String>,
    /// The WAL segments to replay over the base, in segment order. More than one
    /// segment means a compaction committed its next segment but crashed (or has not
    /// yet reached) the epoch swap.
    pub wal_files: Vec<String>,
}

/// One entry of a store directory, as returned by [`Store::load_entries`].
#[derive(Debug)]
pub enum StoreEntry {
    /// A single restored index.
    Single(LoadedIndex),
    /// A restored shard group.
    ShardGroup(ShardGroup),
    /// A live entry's file set. Deliberately *not* opened by the store — `p2h-live`
    /// owns WAL replay and memtable reconstruction.
    Live(LiveEntryFiles),
}

/// Structural validation shared by the save and load paths of shard groups: shapes,
/// dimensions, and the global id mapping must be mutually consistent.
fn validate_group(
    meta: &ShardGroupMeta,
    id_maps: &[VecBuf<u32>],
    shards: &[LoadedIndex],
) -> StoreResult<()> {
    let inconsistent = |message: String| Err(StoreError::GroupInconsistent { message });
    if shards.is_empty() {
        return inconsistent("a shard group needs at least one shard".into());
    }
    if id_maps.len() != shards.len() {
        return inconsistent(format!("{} id mappings for {} shards", id_maps.len(), shards.len()));
    }
    // Anchor the declared total to the decoded id maps *before* allocating anything
    // sized by it: the map lengths are bounded by actual file bytes, while
    // `meta.total_count` is an attacker-controlled header field — a huge declared
    // value must be a typed error, not an allocation.
    let n = meta.total_count;
    let actual: usize = id_maps.iter().map(|ids| ids.len()).sum();
    if actual != n {
        return inconsistent(format!("id maps list {actual} points, GMET declares {n}"));
    }
    let mut seen = vec![false; n];
    for (ordinal, (ids, shard)) in id_maps.iter().zip(shards).enumerate() {
        let index = shard.as_index();
        if index.len() != ids.len() || ids.is_empty() {
            return inconsistent(format!(
                "shard {ordinal} holds {} points but its id map lists {}",
                index.len(),
                ids.len()
            ));
        }
        if index.dim() != meta.dim {
            return inconsistent(format!(
                "shard {ordinal} has dim {} but the group declares {}",
                index.dim(),
                meta.dim
            ));
        }
        let mut prev: Option<u32> = None;
        for &id in ids.iter() {
            if prev.is_some_and(|p| p >= id) {
                return inconsistent(format!("shard {ordinal} id map is not strictly increasing"));
            }
            prev = Some(id);
            let id = id as usize;
            if id >= n || seen[id] {
                return inconsistent(format!(
                    "shard {ordinal} id map is not part of a permutation of 0..{n}"
                ));
            }
            seen[id] = true;
        }
    }
    if seen.iter().any(|&s| !s) {
        return inconsistent(format!("shard id maps do not cover every point of 0..{n}"));
    }
    Ok(())
}

/// The shard-group map file (kind [`IndexKind::ShardMap`]): one `GMET` section
/// followed by one `SIDS` section per shard, the id maps borrowed.
fn shard_map_writer<'a>(meta: &ShardGroupMeta, id_maps: &'a [VecBuf<u32>]) -> SnapshotWriter<'a> {
    let mut writer = SnapshotWriter::new(IndexKind::ShardMap);
    let payload = writer.section(tags::GMET);
    payload.put_u32(meta.partitioner_tag);
    payload.put_u64(meta.requested_shards);
    payload.put_u64(id_maps.len() as u64);
    payload.put_u64(meta.total_count as u64);
    payload.put_u64(meta.dim as u64);
    payload.put_u64(meta.build_seed);
    for ids in id_maps {
        let payload = writer.section(tags::SIDS);
        payload.put_u64(ids.len() as u64);
        payload.records(ids);
    }
    writer
}

/// Decodes a shard-group map file into its metadata and id mappings (buffer-backed:
/// with a mapped source the id maps become zero-copy windows into the map file).
fn decode_shard_map(src: SnapshotSource<'_>) -> StoreResult<(ShardGroupMeta, Vec<VecBuf<u32>>)> {
    let bytes = src.bytes();
    let mut reader = SnapshotReader::new(bytes)?;
    let src = src.for_version(reader.version);
    if reader.kind != IndexKind::ShardMap {
        return Err(StoreError::KindMismatch { expected: IndexKind::ShardMap, found: reader.kind });
    }
    let mut payload = reader.section(tags::GMET)?;
    let partitioner_tag = payload.get_u32("GMET partitioner tag")?;
    let requested_shards = payload.get_u64("GMET requested shards")?;
    let shard_count = payload.get_u64_usize("GMET shard count")?;
    let total_count = payload.get_u64_usize("GMET total count")?;
    let dim = payload.get_u64_usize("GMET dim")?;
    let build_seed = payload.get_u64("GMET build seed")?;
    payload.finish()?;
    let meta = ShardGroupMeta { partitioner_tag, requested_shards, total_count, dim, build_seed };
    // Reserve bounded by what the file can physically hold (one section header per
    // shard), not by the declared count; the loop below stops with a typed error the
    // moment the declared sections outrun the real ones.
    let mut id_maps =
        Vec::with_capacity(shard_count.min(bytes.len() / crate::format::SECTION_HEADER_LEN));
    for _ in 0..shard_count {
        let mut payload = reader.section(tags::SIDS)?;
        let len = payload.get_u64_usize("SIDS length")?;
        id_maps.push(payload.get_u32_buf(len, src, "SIDS ids")?);
        payload.finish()?;
    }
    reader.finish()?;
    Ok((meta, id_maps))
}

/// A snapshot store rooted at a directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    /// How this handle materializes loads ([`LoadMode::Copy`] or zero-copy
    /// [`LoadMode::Mmap`]); saving is mode-independent.
    mode: LoadMode,
    /// Minimum age before this handle's sweeps reclaim an unreferenced staged file
    /// (default [`SWEEP_GRACE`], overridable via `P2H_SWEEP_GRACE_SECS` or
    /// [`Store::with_sweep_grace`]).
    sweep_grace: std::time::Duration,
}

impl Store {
    /// Opens an existing store directory (the manifest must be present and parse),
    /// with the load mode taken from the `P2H_STORE_MMAP` environment variable
    /// ([`LoadMode::from_env`]).
    ///
    /// Opening also sweeps crash leftovers: unreferenced `.tmp` files and staged
    /// epoch files (`<name>.e<E>.p2hs`, `<name>.g<E>.…p2hs`) that no manifest entry
    /// names — e.g. from a save that crashed between staging and the manifest commit —
    /// are deleted best-effort, never touching files the manifest references. Only
    /// files older than [`SWEEP_GRACE`] are reclaimed, so a reader opening the store
    /// while a (single) writer is mid-save cannot delete freshly staged files out
    /// from under the upcoming manifest commit; genuine crash leftovers age past the
    /// grace window and are removed by a later open.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<Self> {
        Self::open_with(dir, LoadMode::from_env())
    }

    /// Opens an existing store directory with an explicit [`LoadMode`].
    pub fn open_with(dir: impl AsRef<Path>, mode: LoadMode) -> StoreResult<Self> {
        let store =
            Self { dir: dir.as_ref().to_path_buf(), mode, sweep_grace: sweep_grace_from_env() };
        let manifest = store.manifest()?; // fail fast on a missing or malformed manifest
        store.sweep_stale_files(&manifest);
        Ok(store)
    }

    /// Creates a store directory (and an empty manifest) if it does not exist, then
    /// opens it. Idempotent on an existing store.
    pub fn create(dir: impl AsRef<Path>) -> StoreResult<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            stage_file(&manifest_path, false, |out| {
                out.write_all(Manifest::default().render().as_bytes())
            })?;
        }
        Self::open(dir)
    }

    /// Returns this handle with a different load mode (cheap; shares the directory).
    pub fn with_mode(mut self, mode: LoadMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns this handle with a different sweep grace window. Tests and embedders
    /// that manage their own save/open concurrency can shrink it (down to zero for
    /// an immediate sweep) without touching the process environment.
    pub fn with_sweep_grace(mut self, grace: std::time::Duration) -> Self {
        self.sweep_grace = grace;
        self
    }

    /// The minimum age before this handle's sweeps reclaim an unreferenced staged
    /// file.
    pub fn sweep_grace(&self) -> std::time::Duration {
        self.sweep_grace
    }

    /// Runs a stale-file sweep now (the same one [`Store::open`] runs) and returns
    /// how many crash-leftover files it deleted.
    ///
    /// # Errors
    ///
    /// Fails only if the manifest cannot be read — the sweep itself is best-effort.
    pub fn sweep_now(&self) -> StoreResult<u64> {
        let manifest = self.manifest()?;
        Ok(self.sweep_stale_files(&manifest))
    }

    /// The load mode this handle uses.
    pub fn load_mode(&self) -> LoadMode {
        self.mode
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Deletes crash leftovers the manifest does not reference: `.tmp` files and
    /// epoch-staged snapshot files, but only ones older than [`Store::sweep_grace`]
    /// (an in-flight save's freshly staged files must survive until its manifest
    /// commit, even if another process opens the store mid-save). Best-effort — a
    /// failed unlink or an unreadable mtime only leaks a stale file, reclaimed on a
    /// later open or by the next save of the same name. Returns the number of files
    /// deleted.
    fn sweep_stale_files(&self, manifest: &Manifest) -> u64 {
        let live: BTreeSet<&str> =
            manifest.entries.values().flat_map(|entry| entry.files()).collect();
        let Ok(entries) = fs::read_dir(&self.dir) else { return 0 };
        let now = std::time::SystemTime::now();
        let mut swept = 0u64;
        let mut future_skipped = 0u64;
        for entry in entries.flatten() {
            let file_name = entry.file_name();
            let Some(name) = file_name.to_str() else { continue };
            if name == MANIFEST_FILE || live.contains(name) {
                continue;
            }
            if !name.ends_with(".tmp") && !is_epoch_staged(name) {
                continue;
            }
            let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) else { continue };
            let age = match now.duration_since(mtime) {
                Ok(age) => age,
                Err(_) => {
                    // An mtime in the future (clock skew between hosts sharing the
                    // directory, or a restored backup) makes the file's age
                    // unknowable — it is not provably stale, so leave it alone.
                    future_skipped += 1;
                    continue;
                }
            };
            if age >= self.sweep_grace && fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
        crate::metrics::record_sweep(swept, future_skipped);
        swept
    }

    /// The registered entry names (single indexes and shard groups), sorted.
    pub fn names(&self) -> StoreResult<Vec<String>> {
        Ok(self.manifest()?.entries.keys().cloned().collect())
    }

    /// Whether the entry registered under `name` is a shard group. `None` if the name
    /// is not registered at all.
    pub fn is_shard_group(&self, name: &str) -> StoreResult<Option<bool>> {
        Ok(self
            .manifest()?
            .entries
            .get(name)
            .map(|entry| matches!(entry, ManifestEntry::Group { .. })))
    }

    /// Snapshots `index` under `name`, replacing any previous entry of that name
    /// (single or group), and returns the snapshot file path.
    ///
    /// The snapshot file is fully staged (tmp + rename) *before* the manifest is
    /// rewritten, and a **replacement never reuses the live file name**: a fresh name
    /// saves as `<name>.p2hs`, overwriting an existing single entry stages under the
    /// next epoch (`<name>.e<E>.p2hs`) and only the manifest commit switches readers
    /// over. A crash or error at any point therefore leaves the previous manifest
    /// *and the previous snapshot bytes* intact — never a dangling entry, never a
    /// half-replaced snapshot. The superseded file is deleted best-effort after the
    /// commit.
    pub fn save<S: Snapshot>(&self, name: &str, index: &S) -> StoreResult<PathBuf> {
        validate_name(name)?;
        let mut manifest = self.manifest()?;
        let file = match manifest.entries.get(name) {
            // Replacing a live single snapshot: stage under the next epoch name so
            // the old bytes survive until the manifest commit.
            Some(ManifestEntry::Single(existing)) => {
                let epoch = single_epoch(existing, name).map_or(1, |e| e + 1);
                format!("{name}.e{epoch}.{SNAPSHOT_EXT}")
            }
            // Fresh name, or replacing a group (whose files all carry `.g<E>.`
            // suffixes): the plain name is not live.
            _ => format!("{name}.{SNAPSHOT_EXT}"),
        };
        let path = self.dir.join(&file);
        index.save_snapshot(&path)?;
        let replaced = manifest.entries.insert(name.to_string(), ManifestEntry::Single(file));
        self.commit_manifest(&manifest)?;
        self.remove_superseded_files(replaced.as_ref(), &manifest.entries[name]);
        Ok(path)
    }

    /// Snapshots a shard group under `name`: one map file holding `meta` and the id
    /// mappings plus one snapshot file per shard, committed atomically.
    ///
    /// Every file of the group is written under a fresh epoch suffix (never reusing a
    /// live name) and fully staged before the manifest commit, so a crash at any point
    /// leaves the previous entry — single or group — complete and loadable, and never
    /// a dangling manifest reference. Files of the replaced entry are deleted
    /// best-effort after the commit.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::GroupInconsistent`] if the metadata, id mappings, and
    /// shards disagree (shapes, dimensions, or the global permutation), plus any I/O
    /// error from staging the files.
    pub fn save_shard_group(
        &self,
        name: &str,
        meta: &ShardGroupMeta,
        id_maps: &[VecBuf<u32>],
        shards: &[LoadedIndex],
    ) -> StoreResult<()> {
        validate_name(name)?;
        validate_group(meta, id_maps, shards)?;
        let mut manifest = self.manifest()?;
        let epoch = match manifest.entries.get(name) {
            Some(ManifestEntry::Group { map_file, .. }) => {
                group_epoch(map_file, name).map_or(1, |e| e + 1)
            }
            _ => 1,
        };

        // Stage every group file first; the manifest rename below is the commit point.
        let map_file = format!("{name}.g{epoch}.map.{SNAPSHOT_EXT}");
        let mut shard_files = Vec::with_capacity(shards.len());
        for (ordinal, shard) in shards.iter().enumerate() {
            let file = format!("{name}.g{epoch}.s{ordinal}.{SNAPSHOT_EXT}");
            stage_file(&self.dir.join(&file), false, |out| shard.write_snapshot(out))?;
            shard_files.push(file);
        }
        let map = shard_map_writer(meta, id_maps);
        stage_file(&self.dir.join(&map_file), false, |out| map.write_to(out))?;

        let replaced = manifest
            .entries
            .insert(name.to_string(), ManifestEntry::Group { map_file, shard_files });
        self.commit_manifest(&manifest)?;
        self.remove_superseded_files(replaced.as_ref(), &manifest.entries[name]);
        Ok(())
    }

    /// Loads the shard group registered under `name`, fully validated: the map file
    /// and every shard snapshot decode, and the id mappings are strictly increasing
    /// per shard and form a disjoint cover of `0..total_count` across shards.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingEntry`] if the name is not registered,
    /// [`StoreError::EntryKind`] if it refers to a single snapshot, any snapshot
    /// decoding error, and [`StoreError::GroupInconsistent`] if the files are
    /// individually valid but mutually inconsistent.
    pub fn load_shard_group(&self, name: &str) -> StoreResult<ShardGroup> {
        let manifest = self.manifest()?;
        match manifest.entries.get(name) {
            None => Err(StoreError::MissingEntry(name.to_string())),
            Some(ManifestEntry::Single(_)) | Some(ManifestEntry::Live { .. }) => {
                Err(StoreError::EntryKind { name: name.to_string(), is_group: false })
            }
            Some(ManifestEntry::Group { map_file, shard_files }) => {
                self.load_group_files(map_file, shard_files)
            }
        }
    }

    fn load_group_files(&self, map_file: &str, shard_files: &[String]) -> StoreResult<ShardGroup> {
        crate::metrics::timed_decode(|| self.load_group_files_inner(map_file, shard_files))
    }

    fn load_group_files_inner(
        &self,
        map_file: &str,
        shard_files: &[String],
    ) -> StoreResult<ShardGroup> {
        // One region (or buffer) per epoch file: the map file plus every shard file.
        let map_owner = self.read_owner(map_file)?;
        let (meta, id_maps) = decode_shard_map(map_owner.as_src())?;
        if id_maps.len() != shard_files.len() {
            return Err(StoreError::GroupInconsistent {
                message: format!(
                    "map file declares {} shards, manifest lists {} files",
                    id_maps.len(),
                    shard_files.len()
                ),
            });
        }
        let shards = shard_files
            .iter()
            .map(|file| decode_any_src(self.read_owner(file)?.as_src()))
            .collect::<StoreResult<Vec<_>>>()?;
        validate_group(&meta, &id_maps, &shards)?;
        Ok(ShardGroup { meta, id_maps, shards })
    }

    /// Reads one store file under this handle's load mode.
    pub(crate) fn read_owner(&self, file: &str) -> StoreResult<SourceOwner> {
        SourceOwner::read(&self.dir.join(file), self.mode)
    }

    /// Loads the index registered under `name` as its concrete type.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingEntry`] if the name is not in the manifest,
    /// [`StoreError::EntryKind`] if it refers to a shard group,
    /// [`StoreError::KindMismatch`] if the snapshot holds a different index kind, and
    /// any snapshot decoding error (see [`Snapshot::decode_snapshot`]).
    pub fn load<S: Snapshot>(&self, name: &str) -> StoreResult<S> {
        crate::metrics::timed_decode(|| S::decode_snapshot_src(self.snapshot_owner(name)?.as_src()))
    }

    /// Loads the index registered under `name`, dispatching on the kind recorded in the
    /// snapshot header.
    pub fn load_any(&self, name: &str) -> StoreResult<LoadedIndex> {
        crate::metrics::timed_decode(|| decode_any_src(self.snapshot_owner(name)?.as_src()))
    }

    /// Loads every entry in the manifest — single indexes and shard groups — in name
    /// order, from one consistent manifest read. Loading is all-or-nothing: any
    /// missing, corrupt, or mutually inconsistent file fails the whole call.
    pub fn load_entries(&self) -> StoreResult<Vec<(String, StoreEntry)>> {
        let manifest = self.manifest()?;
        manifest
            .entries
            .iter()
            .map(|(name, entry)| {
                let loaded = match entry {
                    ManifestEntry::Single(file) => {
                        StoreEntry::Single(crate::metrics::timed_decode(|| {
                            decode_any_src(self.read_owner(file)?.as_src())
                        })?)
                    }
                    ManifestEntry::Group { map_file, shard_files } => {
                        StoreEntry::ShardGroup(self.load_group_files(map_file, shard_files)?)
                    }
                    ManifestEntry::Live { ids_file, base_file, wal_files } => {
                        StoreEntry::Live(LiveEntryFiles {
                            ids_file: ids_file.clone(),
                            base_file: base_file.clone(),
                            wal_files: wal_files.clone(),
                        })
                    }
                };
                Ok((name.clone(), loaded))
            })
            .collect()
    }

    /// The path a single-index snapshot of `name` lives at.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingEntry`] if the name is not registered and
    /// [`StoreError::EntryKind`] if it refers to a shard group (whose files are listed
    /// in the manifest, not derived from the name).
    pub fn snapshot_path(&self, name: &str) -> StoreResult<PathBuf> {
        let manifest = self.manifest()?;
        match manifest.entries.get(name) {
            Some(ManifestEntry::Single(file)) => Ok(self.dir.join(file)),
            Some(ManifestEntry::Group { .. }) | Some(ManifestEntry::Live { .. }) => {
                Err(StoreError::EntryKind { name: name.to_string(), is_group: true })
            }
            None => Err(StoreError::MissingEntry(name.to_string())),
        }
    }

    /// Reads the single-index snapshot registered under `name` under this handle's
    /// load mode.
    fn snapshot_owner(&self, name: &str) -> StoreResult<SourceOwner> {
        let path = self.snapshot_path(name)?;
        SourceOwner::read(&path, self.mode)
    }

    pub(crate) fn manifest(&self) -> StoreResult<Manifest> {
        let path = self.dir.join(MANIFEST_FILE);
        let text = crate::retry::retry_interrupted("store.read", || fs::read_to_string(&path))
            .map_err(|e| io_error(&path, e))?;
        Manifest::parse(&text)
    }

    pub(crate) fn commit_manifest(&self, manifest: &Manifest) -> StoreResult<()> {
        let text = manifest.render();
        stage_file(&self.dir.join(MANIFEST_FILE), false, |out| out.write_all(text.as_bytes()))
    }

    /// Deletes the files of a replaced entry that the new entry no longer references.
    /// Best-effort: the manifest has already committed, so a failed unlink only leaks
    /// a stale file (reclaimed by the next save of the same name).
    pub(crate) fn remove_superseded_files(
        &self,
        replaced: Option<&ManifestEntry>,
        current: &ManifestEntry,
    ) {
        let Some(replaced) = replaced else { return };
        let live: BTreeSet<&str> = current.files().into_iter().collect();
        for file in replaced.files() {
            if !live.contains(file) {
                let _ = fs::remove_file(self.dir.join(file));
            }
        }
    }
}

/// Whether `file` matches one of the store's *epoch-staged* naming patterns —
/// `<name>.e<E>.p2hs` (single replacement), `<name>.g<E>.map.p2hs` /
/// `<name>.g<E>.s<K>.p2hs` (shard group), or `<name>.l<E>.ids.p2hs` /
/// `<name>.l<E>.base.p2hs` / `<name>.l<E>.wal` (live entry). Unreferenced files
/// matching these patterns are crash leftovers and are reclaimed by the open-time
/// sweep; plain `<name>.p2hs` files never match (conservative: they could be
/// user-managed snapshots). WAL segments the manifest references are excluded from
/// sweeping *before* this pattern check (they are in the live set) — only segments no
/// manifest entry names, i.e. from a crashed live create or a crashed compaction
/// phase, ever age into reclamation.
fn is_epoch_staged(file: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let live_epoch = |part: &str| part.len() > 1 && part.starts_with('l') && digits(&part[1..]);
    if let Some(stem) = file.strip_suffix(".wal") {
        // `<name>.l<E>.wal`: a WAL segment.
        return matches!(stem.split('.').next_back(), Some(last) if live_epoch(last));
    }
    let Some(stem) = file.strip_suffix(&format!(".{SNAPSHOT_EXT}")) else { return false };
    let parts: Vec<&str> = stem.split('.').collect();
    match parts.as_slice() {
        [.., mid, last] if mid.len() > 1 && mid.starts_with('g') && digits(&mid[1..]) => {
            *last == "map" || (last.len() > 1 && last.starts_with('s') && digits(&last[1..]))
        }
        [.., mid, last] if live_epoch(mid) => *last == "ids" || *last == "base",
        [_, .., last] if last.len() > 1 && last.starts_with('e') && digits(&last[1..]) => true,
        _ => false,
    }
}

/// Parses the epoch out of a shard-group map file name (`<name>.g<epoch>.map.p2hs`).
fn group_epoch(map_file: &str, name: &str) -> Option<u64> {
    map_file
        .strip_prefix(name)?
        .strip_prefix(".g")?
        .strip_suffix(&format!(".map.{SNAPSHOT_EXT}"))?
        .parse()
        .ok()
}

/// Parses the epoch out of a replaced single-snapshot file name
/// (`<name>.e<epoch>.p2hs`); `None` for the initial `<name>.p2hs` (epoch 0).
fn single_epoch(file: &str, name: &str) -> Option<u64> {
    file.strip_prefix(name)?
        .strip_prefix(".e")?
        .strip_suffix(&format!(".{SNAPSHOT_EXT}"))?
        .parse()
        .ok()
}

/// Decodes a snapshot source into whichever index kind its header declares.
pub(crate) fn decode_any_src(src: SnapshotSource<'_>) -> StoreResult<LoadedIndex> {
    Ok(match SnapshotReader::new(src.bytes())?.kind {
        IndexKind::LinearScan => LoadedIndex::LinearScan(LinearScan::decode_snapshot_src(src)?),
        IndexKind::BallTree => LoadedIndex::BallTree(BallTree::decode_snapshot_src(src)?),
        IndexKind::BcTree => LoadedIndex::BcTree(BcTree::decode_snapshot_src(src)?),
        IndexKind::ShardMap => return Err(StoreError::NotAnIndex(IndexKind::ShardMap)),
        IndexKind::LiveIds => return Err(StoreError::NotAnIndex(IndexKind::LiveIds)),
    })
}

/// Decodes a snapshot buffer into whichever index kind its header declares (the
/// copying path of [`decode_any_src`]).
#[cfg(test)]
fn decode_any(bytes: &[u8]) -> StoreResult<LoadedIndex> {
    decode_any_src(SnapshotSource::Bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let mut manifest = Manifest::default();
        manifest.entries.insert("ball".into(), ManifestEntry::Single("ball.p2hs".into()));
        manifest.entries.insert("scan-v2".into(), ManifestEntry::Single("scan-v2.p2hs".into()));
        manifest.entries.insert(
            "sharded".into(),
            ManifestEntry::Group {
                map_file: "sharded.g3.map.p2hs".into(),
                shard_files: vec!["sharded.g3.s0.p2hs".into(), "sharded.g3.s1.p2hs".into()],
            },
        );
        let parsed = Manifest::parse(&manifest.render()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn sweep_grace_parsing() {
        // Pure-value parsing (no env mutation: other tests run concurrently).
        assert_eq!(parse_sweep_grace(None), SWEEP_GRACE);
        assert_eq!(parse_sweep_grace(Some("0")), std::time::Duration::ZERO);
        assert_eq!(parse_sweep_grace(Some("7200")), std::time::Duration::from_secs(7200));
        assert_eq!(parse_sweep_grace(Some(" 15 ")), std::time::Duration::from_secs(15));
        // Malformed values fall back to the default rather than sweeping eagerly.
        for bad in ["", "-3", "1.5", "fast", "1e3"] {
            assert_eq!(parse_sweep_grace(Some(bad)), SWEEP_GRACE, "`{bad}`");
        }
    }

    #[test]
    fn manifest_rejects_malformed_text() {
        assert!(matches!(
            Manifest::parse(""),
            Err(StoreError::Manifest { line: 0, .. }) | Err(StoreError::Manifest { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("wrong header\n"),
            Err(StoreError::Manifest { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("p2h-store 1\nno-tab-here\n"),
            Err(StoreError::Manifest { line: 2, .. })
        ));
        assert!(matches!(
            Manifest::parse("p2h-store 1\na\ta.p2hs\na\tb.p2hs\n"),
            Err(StoreError::Manifest { line: 3, .. })
        ));
        assert!(matches!(
            Manifest::parse("p2h-store 1\n../evil\tx.p2hs\n"),
            Err(StoreError::InvalidName(_))
        ));
        // A group line needs at least one shard file.
        assert!(matches!(
            Manifest::parse("p2h-store 1\nname\tshard-group\tname.g1.map.p2hs\n"),
            Err(StoreError::Manifest { line: 2, .. })
        ));
        // Three-plus fields without the group marker are malformed.
        assert!(matches!(
            Manifest::parse("p2h-store 1\nname\ta.p2hs\tb.p2hs\n"),
            Err(StoreError::Manifest { line: 2, .. })
        ));
    }

    #[test]
    fn manifest_rejects_traversal_in_the_file_column() {
        // A tampered file column must not be able to point the loader outside the
        // store directory (the manifest is plain text, not checksum-protected).
        for evil in ["../../etc/passwd", "/etc/passwd", ".hidden.p2hs", "a/b.p2hs", ""] {
            let text = format!("p2h-store 1\nname\t{evil}\n");
            assert!(
                matches!(Manifest::parse(&text), Err(StoreError::Manifest { line: 2, .. })),
                "file column `{evil}` must be rejected"
            );
            let group = format!("p2h-store 1\nname\tshard-group\t{evil}\tname.g1.s0.p2hs\n");
            assert!(
                matches!(Manifest::parse(&group), Err(StoreError::Manifest { line: 2, .. })),
                "group map column `{evil}` must be rejected"
            );
            let group = format!("p2h-store 1\nname\tshard-group\tname.g1.map.p2hs\t{evil}\n");
            assert!(
                matches!(Manifest::parse(&group), Err(StoreError::Manifest { line: 2, .. })),
                "group shard column `{evil}` must be rejected"
            );
        }
        // The longest name the store itself writes still round-trips.
        let long = "n".repeat(100);
        let text = format!("p2h-store 1\n{long}\t{long}.{SNAPSHOT_EXT}\n");
        assert!(Manifest::parse(&text).is_ok());
        let group = format!(
            "p2h-store 1\n{long}\tshard-group\t{long}.g1.map.{SNAPSHOT_EXT}\t{long}.g1.s0.{SNAPSHOT_EXT}\n"
        );
        assert!(Manifest::parse(&group).is_ok());
    }

    #[test]
    fn name_validation() {
        for good in ["a", "ball-tree_v2.1", "X", &"n".repeat(100)] {
            assert!(validate_name(good).is_ok(), "{good}");
        }
        for bad in ["", ".hidden", "a/b", "a\\b", "a b", "ü", &"n".repeat(101)] {
            assert!(matches!(validate_name(bad), Err(StoreError::InvalidName(_))), "{bad}");
        }
    }

    #[test]
    fn group_epoch_parsing() {
        assert_eq!(group_epoch("idx.g1.map.p2hs", "idx"), Some(1));
        assert_eq!(group_epoch("idx.g42.map.p2hs", "idx"), Some(42));
        assert_eq!(group_epoch("idx.g1.s0.p2hs", "idx"), None);
        assert_eq!(group_epoch("other.g1.map.p2hs", "idx"), None);
        assert_eq!(group_epoch("idx.gx.map.p2hs", "idx"), None);
    }

    #[test]
    fn single_epoch_parsing() {
        assert_eq!(single_epoch("idx.p2hs", "idx"), None);
        assert_eq!(single_epoch("idx.e1.p2hs", "idx"), Some(1));
        assert_eq!(single_epoch("idx.e37.p2hs", "idx"), Some(37));
        assert_eq!(single_epoch("other.e1.p2hs", "idx"), None);
        assert_eq!(single_epoch("idx.ex.p2hs", "idx"), None);
    }

    #[test]
    fn hostile_declared_total_is_an_error_not_an_allocation() {
        use p2h_core::{LinearScan, PointSet};
        // A map file whose GMET declares an absurd total_count passes every checksum
        // (the writer recomputes CRCs over whatever it is given) but must be rejected
        // by the cross-file consistency check *before* any `total_count`-sized
        // allocation happens.
        let meta = ShardGroupMeta {
            partitioner_tag: 0,
            requested_shards: 1,
            total_count: 1usize << 45,
            dim: 3,
            build_seed: 0,
        };
        let id_maps: Vec<VecBuf<u32>> = vec![vec![0u32, 1].into()];
        let mut bytes = Vec::new();
        shard_map_writer(&meta, &id_maps).write_to(&mut bytes).unwrap();
        let (decoded_meta, decoded_maps) = decode_shard_map(SnapshotSource::Bytes(&bytes)).unwrap();
        assert_eq!(decoded_meta.total_count, 1usize << 45);
        let shard = LoadedIndex::LinearScan(LinearScan::new(
            PointSet::from_rows(&[vec![0.0, 0.0, 1.0], vec![1.0, 1.0, 1.0]]).unwrap(),
        ));
        assert!(matches!(
            validate_group(&decoded_meta, &decoded_maps, &[shard]),
            Err(StoreError::GroupInconsistent { .. })
        ));
    }

    #[test]
    fn shard_map_round_trip_and_corruption() {
        let meta = ShardGroupMeta {
            partitioner_tag: 1,
            requested_shards: 3,
            total_count: 5,
            dim: 4,
            build_seed: 9,
        };
        let id_maps: Vec<VecBuf<u32>> = vec![vec![0u32, 2].into(), vec![1u32, 3, 4].into()];
        let mut bytes = Vec::new();
        shard_map_writer(&meta, &id_maps).write_to(&mut bytes).unwrap();
        let (meta2, maps2) = decode_shard_map(SnapshotSource::Bytes(&bytes)).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(maps2, id_maps);

        // Every truncation boundary is a typed error, never a panic.
        for len in 0..bytes.len() {
            assert!(
                decode_shard_map(SnapshotSource::Bytes(&bytes[..len])).is_err(),
                "truncation at {len}"
            );
        }
        // A flipped payload bit is caught by the section checksum (flip inside the
        // GMET payload; the file tail may be zero padding).
        let mut corrupt = bytes.clone();
        let payload_start = crate::format::HEADER_LEN + crate::format::SECTION_HEADER_LEN;
        corrupt[payload_start] ^= 0x01;
        assert!(matches!(
            decode_shard_map(SnapshotSource::Bytes(&corrupt)),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // A map file is not a standalone index.
        assert!(matches!(decode_any(&bytes), Err(StoreError::NotAnIndex(IndexKind::ShardMap))));
    }
}
