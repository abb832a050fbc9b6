//! Store support for live (mutable) index entries: the id-file snapshot, durable
//! file staging, and the atomic manifest commit that advances a live entry's epoch.
//!
//! A live entry ties together three kinds of files (see the manifest grammar in
//! [`crate::store`] and the byte-level spec in `docs/SNAPSHOT_FORMAT.md`):
//!
//! * an **id file** `<name>.l<E>.ids.p2hs` — a [`IndexKind::LiveIds`] snapshot
//!   recording the epoch, dimensionality, next unassigned id, and the surviving
//!   global ids of the base snapshot, in base-local order;
//! * an optional **base snapshot** `<name>.l<E>.base.p2hs` — an ordinary index
//!   snapshot holding the compacted points (absent while the entry is empty);
//! * one or more **WAL segments** `<name>.l<E>.wal` — replayed over the base in
//!   manifest order (see [`crate::wal`]). Two segments appear only mid-compaction.
//!
//! The store stays deliberately ignorant of live semantics: it validates, stages,
//! loads, and atomically commits the files, while `p2h-live` owns WAL replay,
//! memtable reconstruction, and compaction. Everything committed here is durable:
//! staged files are fsynced before the rename, and the directory is fsynced after
//! every manifest commit, so a crash immediately after an epoch swap cannot lose it.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use p2h_core::VecBuf;

use crate::format::{
    io_error, wire, IndexKind, SnapshotReader, SnapshotSource, SnapshotWriter, StoreError,
    StoreResult,
};
use crate::retry::retry_interrupted;
use crate::snapshot::tags;
use crate::store::{
    decode_any_src, validate_file_column, validate_name, LiveEntryFiles, LoadedIndex,
    ManifestEntry, Store, StoreEntry, SNAPSHOT_EXT,
};
use crate::wal::fsync_dir;

/// The id-file payload of a live entry: epoch metadata plus the surviving global ids
/// of the base snapshot, in base-local (reordered) position order.
#[derive(Debug, Clone)]
pub struct LiveIdsSnapshot {
    /// The entry's epoch (monotonically increasing across compactions).
    pub epoch: u64,
    /// Augmented point dimensionality of the entry.
    pub dim: usize,
    /// The next global id the live index will assign (every id in `ids` and every
    /// id logged by committed WAL segments of this epoch is below the ids they
    /// introduce; `ids` here are all `< next_id`).
    pub next_id: u32,
    /// Strictly increasing surviving global ids, one per base snapshot point.
    pub ids: VecBuf<u32>,
}

impl LiveIdsSnapshot {
    /// Serializes the id file into a self-contained snapshot byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut writer = SnapshotWriter::new(IndexKind::LiveIds);
        let meta = writer.section(tags::LMET);
        wire::put_u64(meta, self.epoch);
        wire::put_u64(meta, self.dim as u64);
        wire::put_u32(meta, self.next_id);
        wire::put_u64(meta, self.ids.len() as u64);
        wire::put_u32_slice(writer.section(tags::LIDS), &self.ids);
        writer.finish()
    }

    /// Restores an id file from a decode source, with the same hostile-input
    /// hardening as every other snapshot reader: all malformations are typed
    /// [`StoreError`]s, never panics or unbounded allocations.
    pub fn decode_src(src: SnapshotSource<'_>) -> StoreResult<Self> {
        let mut reader = SnapshotReader::new(src.bytes())?;
        let src = src.for_version(reader.version);
        if reader.kind != IndexKind::LiveIds {
            return Err(StoreError::KindMismatch {
                expected: IndexKind::LiveIds,
                found: reader.kind,
            });
        }
        let mut meta = reader.section(tags::LMET)?;
        let epoch = meta.get_u64("LMET epoch")?;
        let dim = meta.get_u64_usize("LMET dim")?;
        let next_id = meta.get_u32("LMET next id")?;
        let count = meta.get_u64_usize("LMET id count")?;
        meta.finish()?;
        if dim < 2 {
            return Err(StoreError::Invalid(p2h_core::Error::InvalidDimension(dim)));
        }
        let mut payload = reader.section(tags::LIDS)?;
        let ids = payload.get_u32_buf(count, src, "LIDS payload")?;
        payload.finish()?;
        reader.finish()?;
        let increasing = ids.windows(2).all(|w| w[0] < w[1]);
        if !increasing || ids.last().is_some_and(|&last| last >= next_id) {
            return Err(StoreError::Invalid(p2h_core::Error::Corrupt(
                "LIDS ids must be strictly increasing and below the next id".into(),
            )));
        }
        Ok(Self { epoch, dim, next_id, ids })
    }

    /// Restores an id file from plain bytes (the copying path).
    pub fn decode(bytes: &[u8]) -> StoreResult<Self> {
        Self::decode_src(SnapshotSource::Bytes(bytes))
    }
}

/// The id file name of epoch `epoch` of live entry `name`.
pub fn live_ids_file(name: &str, epoch: u64) -> String {
    format!("{name}.l{epoch}.ids.{SNAPSHOT_EXT}")
}

/// The base snapshot file name of epoch `epoch` of live entry `name`.
pub fn live_base_file(name: &str, epoch: u64) -> String {
    format!("{name}.l{epoch}.base.{SNAPSHOT_EXT}")
}

/// The WAL segment file name of epoch `epoch` of live entry `name`.
pub fn live_wal_file(name: &str, epoch: u64) -> String {
    format!("{name}.l{epoch}.wal")
}

/// Writes `bytes` to `path` durably: temporary sibling, fsync, atomic rename, then a
/// directory fsync. Unlike the plain snapshot writer this survives power loss — live
/// epoch files must be durable *before* the manifest references them.
fn write_file_durably(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let mut file =
        retry_interrupted("store.write", || File::create(tmp)).map_err(|e| io_error(tmp, e))?;
    retry_interrupted("store.write", || file.write_all(bytes)).map_err(|e| io_error(tmp, e))?;
    retry_interrupted("store.write", || file.sync_all()).map_err(|e| io_error(tmp, e))?;
    drop(file);
    retry_interrupted("store.write", || fs::rename(tmp, path)).map_err(|e| io_error(path, e))?;
    match path.parent() {
        Some(dir) => fsync_dir(dir),
        None => Ok(()),
    }
}

impl Store {
    /// Looks up a live entry's files by name.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingEntry`] if the name is absent;
    /// [`StoreError::EntryKind`] if it names a single snapshot or a shard group.
    pub fn live_entry(&self, name: &str) -> StoreResult<LiveEntryFiles> {
        match self.manifest()?.entries.get(name) {
            Some(ManifestEntry::Live { ids_file, base_file, wal_files }) => Ok(LiveEntryFiles {
                ids_file: ids_file.clone(),
                base_file: base_file.clone(),
                wal_files: wal_files.clone(),
            }),
            Some(ManifestEntry::Single(_)) => {
                Err(StoreError::EntryKind { name: name.to_string(), is_group: false })
            }
            Some(ManifestEntry::Group { .. }) => {
                Err(StoreError::EntryKind { name: name.to_string(), is_group: true })
            }
            None => Err(StoreError::MissingEntry(name.to_string())),
        }
    }

    /// Atomically points the manifest entry `name` at `files`, creating or replacing
    /// it, then deletes files of the replaced entry that the new one no longer
    /// references (best-effort — this is what reclaims superseded WAL segments and
    /// epoch files *after* the commit, never before).
    ///
    /// The manifest rename is the commit point: a crash before it leaves the old
    /// epoch fully intact, a crash after it leaves the new one. The store directory
    /// is fsynced after the rename so the commit itself is durable.
    pub fn commit_live(&self, name: &str, files: &LiveEntryFiles) -> StoreResult<()> {
        validate_name(name)?;
        validate_file_column(&files.ids_file, 0)?;
        if let Some(base) = &files.base_file {
            validate_file_column(base, 0)?;
        }
        if files.wal_files.is_empty() {
            return Err(StoreError::Manifest {
                line: 0,
                message: format!("live entry `{name}` must reference at least one WAL segment"),
            });
        }
        for wal in &files.wal_files {
            validate_file_column(wal, 0)?;
        }
        let entry = ManifestEntry::Live {
            ids_file: files.ids_file.clone(),
            base_file: files.base_file.clone(),
            wal_files: files.wal_files.clone(),
        };
        let mut manifest = self.manifest()?;
        let replaced = manifest.entries.insert(name.to_string(), entry.clone());
        self.commit_manifest(&manifest)?;
        fsync_dir(self.dir())?;
        self.remove_superseded_files(replaced.as_ref(), &entry);
        Ok(())
    }

    /// Removes a live entry from the manifest and deletes its files (best-effort,
    /// after the commit).
    ///
    /// # Errors
    ///
    /// Same lookup errors as [`Store::live_entry`].
    pub fn remove_live(&self, name: &str) -> StoreResult<()> {
        let mut manifest = self.manifest()?;
        match manifest.entries.get(name) {
            Some(ManifestEntry::Live { .. }) => {}
            Some(ManifestEntry::Single(_)) => {
                return Err(StoreError::EntryKind { name: name.to_string(), is_group: false });
            }
            Some(ManifestEntry::Group { .. }) => {
                return Err(StoreError::EntryKind { name: name.to_string(), is_group: true });
            }
            None => return Err(StoreError::MissingEntry(name.to_string())),
        }
        let removed = manifest.entries.remove(name).expect("checked above");
        self.commit_manifest(&manifest)?;
        fsync_dir(self.dir())?;
        for file in removed.files() {
            let _ = fs::remove_file(self.dir().join(file));
        }
        Ok(())
    }

    /// Durably stages a live id file under `file` (fsynced before the rename; not
    /// yet referenced by the manifest until [`Store::commit_live`]).
    pub fn save_live_ids(&self, file: &str, snapshot: &LiveIdsSnapshot) -> StoreResult<()> {
        validate_file_column(file, 0)?;
        write_file_durably(&self.dir().join(file), &snapshot.encode())
    }

    /// Loads and validates a live id file under this handle's load mode.
    pub fn load_live_ids(&self, file: &str) -> StoreResult<LiveIdsSnapshot> {
        validate_file_column(file, 0)?;
        let owner = self.read_owner(file)?;
        LiveIdsSnapshot::decode_src(owner.as_src())
    }

    /// Durably stages an encoded index snapshot under `file` — the base snapshot of
    /// a live epoch, produced by compaction and committed later via
    /// [`Store::commit_live`].
    pub fn save_live_snapshot(&self, file: &str, bytes: &[u8]) -> StoreResult<()> {
        validate_file_column(file, 0)?;
        write_file_durably(&self.dir().join(file), bytes)
    }

    /// Loads a live entry's base snapshot as whichever index kind it holds, under
    /// this handle's load mode (zero-copy when the store was opened with
    /// [`crate::LoadMode::Mmap`]).
    pub fn load_live_base(&self, file: &str) -> StoreResult<LoadedIndex> {
        validate_file_column(file, 0)?;
        crate::metrics::timed_decode(|| {
            let owner = self.read_owner(file)?;
            decode_any_src(owner.as_src())
        })
    }

    /// The absolute path of a live entry file (after validating it obeys the
    /// manifest file-name rules — no traversal, no hidden files). `p2h-live` uses
    /// this to open WAL segments, which the store does not parse itself.
    pub fn live_path(&self, file: &str) -> StoreResult<PathBuf> {
        validate_file_column(file, 0)?;
        Ok(self.dir().join(file))
    }

    /// Lists the live entries in the store, sorted by name.
    pub fn live_entries(&self) -> StoreResult<Vec<String>> {
        Ok(self
            .load_entries()?
            .into_iter()
            .filter_map(|(name, entry)| matches!(entry, StoreEntry::Live(_)).then_some(name))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TestDir;

    fn sample_ids(epoch: u64) -> LiveIdsSnapshot {
        LiveIdsSnapshot { epoch, dim: 4, next_id: 10, ids: vec![0u32, 2, 3, 7].into() }
    }

    #[test]
    fn ids_snapshot_round_trip() {
        let snap = sample_ids(3);
        let decoded = LiveIdsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.epoch, 3);
        assert_eq!(decoded.dim, 4);
        assert_eq!(decoded.next_id, 10);
        assert_eq!(&*decoded.ids, &[0, 2, 3, 7]);
    }

    #[test]
    fn ids_snapshot_rejects_disorder_and_overflowing_ids() {
        let mut snap = sample_ids(0);
        snap.ids = vec![0u32, 2, 2].into();
        assert!(matches!(LiveIdsSnapshot::decode(&snap.encode()), Err(StoreError::Invalid(_))));
        let mut snap = sample_ids(0);
        snap.ids = vec![0u32, 11].into(); // 11 ≥ next_id of 10
        assert!(matches!(LiveIdsSnapshot::decode(&snap.encode()), Err(StoreError::Invalid(_))));
    }

    #[test]
    fn ids_snapshot_hostile_truncation_is_typed() {
        let bytes = sample_ids(1).encode();
        for cut in 0..bytes.len() {
            assert!(LiveIdsSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn commit_and_reopen_live_entry() {
        let dir = TestDir::new("live-commit");
        let store = Store::create(&dir).unwrap();
        store.save_live_ids("idx.l0.ids.p2hs", &sample_ids(0)).unwrap();
        let files = LiveEntryFiles {
            ids_file: "idx.l0.ids.p2hs".into(),
            base_file: None,
            wal_files: vec!["idx.l0.wal".into()],
        };
        store.commit_live("idx", &files).unwrap();
        assert_eq!(store.live_entry("idx").unwrap(), files);
        assert_eq!(store.live_entries().unwrap(), vec!["idx".to_string()]);
        let loaded = store.load_live_ids("idx.l0.ids.p2hs").unwrap();
        assert_eq!(loaded.next_id, 10);

        // Reopen: the manifest round-trips the live line.
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.live_entry("idx").unwrap(), files);
    }

    #[test]
    fn commit_live_reclaims_superseded_files_only_after_commit() {
        let dir = TestDir::new("live-reclaim");
        let store = Store::create(&dir).unwrap();
        store.save_live_ids("idx.l0.ids.p2hs", &sample_ids(0)).unwrap();
        fs::write(dir.join("idx.l0.wal"), b"x").unwrap();
        store
            .commit_live(
                "idx",
                &LiveEntryFiles {
                    ids_file: "idx.l0.ids.p2hs".into(),
                    base_file: None,
                    wal_files: vec!["idx.l0.wal".into()],
                },
            )
            .unwrap();

        // Epoch swap to l1: the l0 files must survive until this commit, then go.
        store.save_live_ids("idx.l1.ids.p2hs", &sample_ids(1)).unwrap();
        fs::write(dir.join("idx.l1.wal"), b"y").unwrap();
        assert!(dir.join("idx.l0.ids.p2hs").exists());
        store
            .commit_live(
                "idx",
                &LiveEntryFiles {
                    ids_file: "idx.l1.ids.p2hs".into(),
                    base_file: None,
                    wal_files: vec!["idx.l1.wal".into()],
                },
            )
            .unwrap();
        assert!(!dir.join("idx.l0.ids.p2hs").exists());
        assert!(!dir.join("idx.l0.wal").exists());
        assert!(dir.join("idx.l1.ids.p2hs").exists());
        assert!(dir.join("idx.l1.wal").exists());
    }

    #[test]
    fn commit_live_validates_inputs() {
        let dir = TestDir::new("live-validate");
        let store = Store::create(&dir).unwrap();
        let bad_wal = LiveEntryFiles {
            ids_file: "idx.l0.ids.p2hs".into(),
            base_file: None,
            wal_files: vec![],
        };
        assert!(matches!(store.commit_live("idx", &bad_wal), Err(StoreError::Manifest { .. })));
        let traversal = LiveEntryFiles {
            ids_file: "../evil.p2hs".into(),
            base_file: None,
            wal_files: vec!["idx.l0.wal".into()],
        };
        assert!(matches!(store.commit_live("idx", &traversal), Err(StoreError::Manifest { .. })));
        assert!(store.live_path("../evil.wal").is_err());
    }

    #[test]
    fn remove_live_deletes_entry_and_files() {
        let dir = TestDir::new("live-remove");
        let store = Store::create(&dir).unwrap();
        store.save_live_ids("idx.l0.ids.p2hs", &sample_ids(0)).unwrap();
        fs::write(dir.join("idx.l0.wal"), b"x").unwrap();
        store
            .commit_live(
                "idx",
                &LiveEntryFiles {
                    ids_file: "idx.l0.ids.p2hs".into(),
                    base_file: None,
                    wal_files: vec!["idx.l0.wal".into()],
                },
            )
            .unwrap();
        store.remove_live("idx").unwrap();
        assert!(matches!(store.live_entry("idx"), Err(StoreError::MissingEntry(_))));
        assert!(!dir.join("idx.l0.ids.p2hs").exists());
        assert!(!dir.join("idx.l0.wal").exists());
    }
}
