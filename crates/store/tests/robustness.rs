//! Robustness tests for the storage layer: EINTR-retry loops around the raw syscall
//! paths, a persistent write failure, the configurable stale-file sweep grace window,
//! and the future-mtime skip.
//!
//! The fault rules installed here are process-global (`p2h_obs::fault`), so every
//! test in this binary serializes on one mutex — cargo runs test *binaries*
//! sequentially, so rules set here cannot leak into other suites.

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, SystemTime};

use common::TestDir;
use p2h_balltree::{BcTree, BcTreeBuilder};
use p2h_core::{HyperplaneQuery, LinearScan, Neighbor, P2hIndex, PointSet, VecBuf};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_obs::fault;
use p2h_store::{LoadMode, LoadedIndex, ShardGroupMeta, Store, StoreError};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn dataset(n: usize, seed: u64) -> PointSet {
    SyntheticDataset::new("store-robustness", n, 6, DataDistribution::Uniform { scale: 2.0 }, seed)
        .generate()
        .unwrap()
}

/// Points whose snapshot spans several of the writer's 64 KiB chunks.
fn wide_dataset(n: usize, seed: u64) -> PointSet {
    SyntheticDataset::new(
        "store-robustness-wide",
        n,
        32,
        DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.5 },
        seed,
    )
    .generate()
    .unwrap()
}

/// `ps` as a two-shard group: the first half and the rest, each a BC-Tree.
fn two_shards(ps: &PointSet) -> (ShardGroupMeta, Vec<VecBuf<u32>>, Vec<LoadedIndex>) {
    let split = ps.len() / 2;
    let mut id_maps = Vec::new();
    let mut shards = Vec::new();
    for range in [0..split, split..ps.len()] {
        let rows = ps.flat_range(range.start, range.end).to_vec();
        let part = PointSet::from_flat(ps.dim(), rows).unwrap();
        shards.push(LoadedIndex::BcTree(BcTreeBuilder::new(32).build(&part).unwrap()));
        id_maps.push(range.map(|id| id as u32).collect::<Vec<_>>().into());
    }
    let meta = ShardGroupMeta {
        partitioner_tag: 0,
        requested_shards: 2,
        total_count: ps.len(),
        dim: ps.dim(),
        build_seed: 0,
    };
    (meta, id_maps, shards)
}

/// The exact top-`k` of a shard group: each shard's answer in global ids, merged under
/// the (distance, id) order every exact answer follows.
fn group_search(
    shards: &[LoadedIndex],
    id_maps: &[VecBuf<u32>],
    query: &HyperplaneQuery,
    k: usize,
) -> Vec<Neighbor> {
    let mut merged: Vec<Neighbor> = shards
        .iter()
        .zip(id_maps)
        .flat_map(|(shard, ids)| {
            shard
                .as_index()
                .search_exact(query, k)
                .neighbors
                .into_iter()
                .map(|n| Neighbor { index: ids[n.index] as usize, distance: n.distance })
        })
        .collect();
    merged.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.index.cmp(&b.index)));
    merged.truncate(k);
    merged
}

/// Checks `search` against `scan` on a few queries and depths: the same ids and the same
/// distance bits.
fn answers_like(scan: &LinearScan, search: impl Fn(&HyperplaneQuery, usize) -> Vec<Neighbor>) {
    let bits = |neighbors: Vec<Neighbor>| -> Vec<(usize, u32)> {
        neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    };
    let queries = generate_queries(scan.points(), 6, QueryDistribution::DataDifference, 3).unwrap();
    for query in &queries {
        for k in [1, 10] {
            assert_eq!(
                bits(search(query, k)),
                bits(scan.search_exact(query, k).neighbors),
                "k={k}"
            );
        }
    }
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

/// Satellite 1, write side: EINTR during the staged save path (tmp write + rename)
/// is absorbed the same way — an interrupted attempt restarts the whole streamed
/// write from a truncated `.tmp`. The snapshots span many write chunks (a BC-Tree
/// and a two-shard group), and every save loads under both loaders to answers
/// identical to a linear scan's.
#[test]
fn transient_eintr_never_aborts_a_save() {
    let _guard = serialize();
    let ps = wide_dataset(3_000, 13);
    let scan = LinearScan::new(ps.clone());
    let tree = BcTreeBuilder::new(32).build(&ps).unwrap();
    let (meta, id_maps, shards) = two_shards(&ps);
    let dir = TestDir::new("eintr-save");
    let store = Store::create(&dir).unwrap();

    let retries_before = eintr_retries();
    fault::set_spec("store.write:eintr:0.5:99").unwrap();
    for epoch in 0..6 {
        let saved = store
            .save("scan", &LinearScan::new(ps.clone()))
            .and_then(|_| store.save("tree", &tree))
            .and_then(|_| store.save_shard_group("group", &meta, &id_maps, &shards));
        if let Err(e) = saved {
            panic!("save under transient EINTR failed at epoch {epoch}: {e:?}");
        }
    }
    fault::set_rules(Vec::new());
    assert!(eintr_retries() > retries_before, "the 50% EINTR rule must have fired");
    let _: LinearScan = store.load("scan").unwrap();
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        let store = Store::open_with(&dir, mode).unwrap();
        answers_like(&scan, |q, k| {
            store.load::<BcTree>("tree").unwrap().search_exact(q, k).neighbors
        });
        let group = store.load_shard_group("group").unwrap();
        answers_like(&scan, |q, k| group_search(&group.shards, &group.id_maps, q, k));
    }
}

/// A persistent `store.write` failure fails the save with a typed error and leaves the
/// previous snapshots and manifest loadable, with nothing under the new files' names.
#[test]
fn persistent_write_error_keeps_the_previous_save() {
    let _guard = serialize();
    let ps = wide_dataset(1_200, 16);
    let scan = LinearScan::new(ps.clone());
    let tree = BcTreeBuilder::new(32).build(&ps).unwrap();
    let (meta, id_maps, shards) = two_shards(&ps);
    let dir = TestDir::new("write-error");
    let store = Store::create(&dir).unwrap();
    store.save("tree", &tree).unwrap();
    store.save_shard_group("group", &meta, &id_maps, &shards).unwrap();
    let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();

    fault::set_spec("store.write:truncate:1:3").unwrap();
    let tree_err = store.save("tree", &tree).unwrap_err();
    let group_err = store.save_shard_group("group", &meta, &id_maps, &shards).unwrap_err();
    fault::set_rules(Vec::new());
    for err in [tree_err, group_err] {
        assert!(
            matches!(&err, StoreError::Io { message, .. } if message.contains("injected")),
            "expected the injected fault as a typed Io error, got {err:?}"
        );
    }
    // The replacements would have been epoch 1 of the tree and epoch 2 of the group.
    for file in ["tree.e1.p2hs", "group.g2.map.p2hs", "group.g2.s0.p2hs", "group.g2.s1.p2hs"] {
        assert!(!dir.join(file).exists(), "{file} must not exist after a failed save");
    }
    assert_eq!(std::fs::read(dir.join("MANIFEST")).unwrap(), manifest);
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        let store = Store::open_with(&dir, mode).unwrap();
        answers_like(&scan, |q, k| {
            store.load::<BcTree>("tree").unwrap().search_exact(q, k).neighbors
        });
        let group = store.load_shard_group("group").unwrap();
        answers_like(&scan, |q, k| group_search(&group.shards, &group.id_maps, q, k));
    }
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
