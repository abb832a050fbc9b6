//! Robustness tests for the storage layer: EINTR-retry loops around the raw syscall
//! paths, the configurable stale-file sweep grace window, and the future-mtime skip.
//!
//! The fault rules installed here are process-global (`p2h_obs::fault`), so every
//! test in this binary serializes on one mutex — cargo runs test *binaries*
//! sequentially, so rules set here cannot leak into other suites.

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, SystemTime};

use common::TestDir;
use p2h_core::{LinearScan, PointSet};
use p2h_data::{DataDistribution, SyntheticDataset};
use p2h_obs::fault;
use p2h_store::{LoadMode, Store, StoreError};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn dataset(n: usize, seed: u64) -> PointSet {
    SyntheticDataset::new("store-robustness", n, 6, DataDistribution::Uniform { scale: 2.0 }, seed)
        .generate()
        .unwrap()
}

fn eintr_retries() -> u64 {
    p2h_obs::global()
        .snapshot()
        .series("p2h_store_eintr_retries_total", &[])
        .map_or(0, |s| s.value.scalar())
}

fn future_skips() -> u64 {
    p2h_obs::global()
        .snapshot()
        .series("p2h_store_sweep_future_skips_total", &[])
        .map_or(0, |s| s.value.scalar())
}

/// Satellite 1: a transient EINTR (rate 0.5) never aborts a snapshot load — the
/// retry loop reissues the interrupted syscall and the load succeeds bit-for-bit,
/// under both load modes.
#[test]
fn transient_eintr_never_aborts_a_snapshot_load() {
    let _guard = serialize();
    let ps = dataset(300, 11);
    let dir = TestDir::new("eintr-transient");
    let store = Store::create(&dir).unwrap();
    store.save("scan", &LinearScan::new(ps.clone())).unwrap();

    let retries_before = eintr_retries();
    fault::set_spec("store.read:eintr:0.5:1234").unwrap();
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        // Reopen (manifest read + sweep) and load under injection, repeatedly so the
        // 50% rule interrupts many individual syscalls across both paths.
        for _ in 0..8 {
            let reopened = Store::open_with(&dir, mode).unwrap();
            let loaded: LinearScan = reopened.load("scan").unwrap();
            assert_eq!(loaded.points().len(), ps.len());
            assert_eq!(loaded.points().dim(), ps.dim());
        }
    }
    fault::set_rules(Vec::new());
    assert!(
        eintr_retries() > retries_before,
        "the 50% EINTR rule must actually have interrupted some syscalls"
    );
}

/// Satellite 1, failure side: an EINTR that persists past the retry cap surfaces as
/// a typed I/O error, not a hang or panic.
#[test]
fn persistent_eintr_is_a_typed_error() {
    let _guard = serialize();
    let ps = dataset(120, 12);
    let dir = TestDir::new("eintr-persistent");
    let store = Store::create(&dir).unwrap();
    store.save("scan", &LinearScan::new(ps)).unwrap();

    fault::set_spec("store.read:eintr:1:7").unwrap();
    let err = Store::open(&dir).unwrap_err();
    fault::set_rules(Vec::new());
    match err {
        StoreError::Io { message, .. } => {
            assert!(
                message.contains("EINTR"),
                "the typed error must name the persistent interruption: {message}"
            );
        }
        other => panic!("expected a typed Io error, got {other:?}"),
    }
    // With injection cleared the same store opens fine — nothing was corrupted.
    let _: LinearScan = Store::open(&dir).unwrap().load("scan").unwrap();
}

/// Satellite 1, write side: EINTR during the atomic save path (tmp write + rename)
/// is absorbed the same way.
#[test]
fn transient_eintr_never_aborts_a_save() {
    let _guard = serialize();
    let ps = dataset(150, 13);
    let dir = TestDir::new("eintr-save");
    let store = Store::create(&dir).unwrap();

    fault::set_spec("store.write:eintr:0.5:99").unwrap();
    for epoch in 0..6 {
        store.save("scan", &LinearScan::new(ps.clone())).unwrap_or_else(|e| {
            panic!("save under transient EINTR failed at epoch {epoch}: {e:?}")
        });
    }
    fault::set_rules(Vec::new());
    let _: LinearScan = store.load("scan").unwrap();
}

/// Satellite 3: the grace window is a per-handle knob — zero grace sweeps a fresh
/// leftover immediately, a large grace protects it.
#[test]
fn sweep_grace_is_configurable() {
    let _guard = serialize();
    let ps = dataset(100, 14);
    let dir = TestDir::new("grace");
    let store = Store::create(&dir).unwrap();
    store.save("live", &LinearScan::new(ps)).unwrap();

    let leftover = dir.join("live.e7.p2hs");
    std::fs::write(&leftover, b"crash leftover").unwrap();

    // A generous grace (what a conservative P2H_SWEEP_GRACE_SECS deployment would
    // set) leaves the fresh file alone.
    let patient = store.clone().with_sweep_grace(Duration::from_secs(7200));
    assert_eq!(patient.sweep_grace(), Duration::from_secs(7200));
    assert_eq!(patient.sweep_now().unwrap(), 0);
    assert!(leftover.exists(), "file inside the grace window must survive");

    // Zero grace reclaims it on the very next sweep.
    let eager = store.with_sweep_grace(Duration::ZERO);
    assert_eq!(eager.sweep_now().unwrap(), 1);
    assert!(!leftover.exists(), "zero grace must sweep the leftover immediately");
}

/// Satellite 3: a file whose mtime lies in the future is not provably stale and must
/// survive even a zero-grace sweep (and be counted as skipped).
#[test]
fn future_mtime_files_are_skipped_not_swept() {
    let _guard = serialize();
    let ps = dataset(100, 15);
    let dir = TestDir::new("future");
    let store = Store::create(&dir).unwrap();
    store.save("live", &LinearScan::new(ps)).unwrap();

    let from_the_future = dir.join("live.e9.p2hs");
    std::fs::write(&from_the_future, b"clock skew").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&from_the_future)
        .and_then(|f| f.set_modified(SystemTime::now() + Duration::from_secs(3600)))
        .expect("set future mtime");

    let skips_before = future_skips();
    let eager = store.with_sweep_grace(Duration::ZERO);
    assert_eq!(eager.sweep_now().unwrap(), 0);
    assert!(from_the_future.exists(), "future-mtime files must not be treated as stale");
    assert_eq!(future_skips(), skips_before + 1, "the skip must be visible in metrics");

    // Once its mtime is back in the (aged) past, the same file is fair game.
    std::fs::File::options()
        .write(true)
        .open(&from_the_future)
        .and_then(|f| f.set_modified(SystemTime::now() - Duration::from_secs(3600)))
        .expect("backdate mtime");
    assert_eq!(eager.sweep_now().unwrap(), 1);
    assert!(!from_the_future.exists());
}

/// PR 8, satellite 5: the sweep recognizes live-entry files. Manifest-referenced WAL
/// segments and live epoch files are in the live set and must never be reclaimed, no
/// matter their age; *unreferenced* staged live files (a crashed compaction's
/// leftovers) are swept once aged — and superseded segments are reclaimed by the
/// epoch commit itself, never by the sweep racing ahead of it.
#[test]
fn sweep_protects_referenced_live_files_and_reclaims_staged_ones() {
    let _guard = serialize();
    let dir = TestDir::new("live-sweep");
    let store = Store::create(&dir).unwrap();

    // A committed live entry at epoch 0 (ids + wal referenced by the manifest).
    let ids = p2h_store::LiveIdsSnapshot { epoch: 0, dim: 3, next_id: 0, ids: Vec::new().into() };
    let ids_file = p2h_store::live_ids_file("stream", 0);
    let wal_file = p2h_store::live_wal_file("stream", 0);
    store.save_live_ids(&ids_file, &ids).unwrap();
    let header = p2h_store::WalHeader { epoch: 0, dim: 3, first_id: 0 };
    let mut wal =
        p2h_store::WalWriter::create(&store.live_path(&wal_file).unwrap(), header).unwrap();
    wal.append(&[p2h_store::WalOp::Insert { id: 0, point: vec![1.0, 2.0, 1.0] }]).unwrap();
    drop(wal);
    store
        .commit_live(
            "stream",
            &p2h_store::LiveEntryFiles {
                ids_file: ids_file.clone(),
                base_file: None,
                wal_files: vec![wal_file.clone()],
            },
        )
        .unwrap();

    // Crashed-compaction leftovers: staged epoch-1 files no manifest entry names.
    let staged = [
        dir.join("stream.l1.ids.p2hs"),
        dir.join("stream.l1.base.p2hs"),
        dir.join("stream.l1.wal"),
    ];
    for file in &staged {
        std::fs::write(file, b"crashed compaction").unwrap();
    }

    // Even a zero-grace sweep must leave the referenced epoch-0 files alone while
    // reclaiming the aged staged ones.
    let eager = store.clone().with_sweep_grace(Duration::ZERO);
    assert_eq!(eager.sweep_now().unwrap(), staged.len() as u64);
    for file in &staged {
        assert!(!file.exists(), "unreferenced staged live file must be swept");
    }
    assert!(dir.join(&ids_file).exists(), "referenced id file must survive the sweep");
    assert!(dir.join(&wal_file).exists(), "referenced WAL segment must survive the sweep");

    // The acknowledged write is still replayable after the sweep.
    let replay = p2h_store::replay_wal(&store.live_path(&wal_file).unwrap()).unwrap();
    assert_eq!(replay.ops.len(), 1);

    // A fresh staged WAL inside the grace window survives (the mid-compaction case:
    // the compactor staged epoch 1 but has not committed yet).
    let fresh = dir.join("stream.l1.wal");
    std::fs::write(&fresh, b"mid-compaction").unwrap();
    let patient = store.with_sweep_grace(Duration::from_secs(7200));
    assert_eq!(patient.sweep_now().unwrap(), 0);
    assert!(fresh.exists(), "fresh staged segment inside the grace window must survive");
}
