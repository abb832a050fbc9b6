//! Shard-group persistence: a sharded index snapshots into the store's shard-group
//! layout and reloads bit-identically; every corruption of the multi-file layout is a
//! typed error and loading stays all-or-nothing; replacing a group is atomic (epoch
//! staging) and reclaims superseded files.

use p2h_core::{P2hIndex, PointSet, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndex, ShardedIndexBuilder};
use p2h_store::{Store, StoreEntry, StoreError};

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

fn dataset(n: usize, raw_dim: usize) -> PointSet {
    SyntheticDataset::new(
        "shard-store",
        n,
        raw_dim,
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.0 },
        17,
    )
    .generate()
    .unwrap()
}

fn build_sharded(points: &PointSet, shards: usize) -> ShardedIndex {
    ShardedIndexBuilder::new(Partitioner::Hash { shards }, ShardIndexKind::BcTree { leaf_size: 24 })
        .with_seed(5)
        .build(points)
        .unwrap()
}

#[test]
fn shard_group_round_trips_bit_identically() {
    let dir = TestDir::new("roundtrip");
    let points = dataset(1_200, 10);
    let queries = generate_queries(&points, 16, QueryDistribution::DataDifference, 3).unwrap();
    let sharded = build_sharded(&points, 4);

    let store = Store::create(&dir).unwrap();
    sharded.save_into(&store, "sharded").unwrap();
    assert_eq!(store.is_shard_group("sharded").unwrap(), Some(true));
    assert_eq!(store.names().unwrap(), vec!["sharded"]);

    let restored = ShardedIndex::load_from(&store, "sharded").unwrap();
    assert_eq!(restored.shard_count(), sharded.shard_count());
    assert_eq!(restored.partitioner(), sharded.partitioner());
    assert_eq!(restored.build_seed(), sharded.build_seed());
    for (params_name, params) in
        [("exact", SearchParams::exact(10)), ("budgeted", SearchParams::approximate(10, 300))]
    {
        for query in &queries {
            let a = sharded.search(query, &params);
            let b = restored.search(query, &params);
            assert_eq!(a.neighbors.len(), b.neighbors.len());
            for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                assert_eq!(x.index, y.index, "{params_name}");
                assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{params_name}");
            }
        }
    }
}

#[test]
fn mixed_stores_load_through_entries() {
    let dir = TestDir::new("mixed");
    let points = dataset(400, 6);
    let store = Store::create(&dir).unwrap();
    store.save("scan", &p2h_core::LinearScan::new(points.clone())).unwrap();
    build_sharded(&points, 3).save_into(&store, "sharded").unwrap();

    let entries = store.load_entries().unwrap();
    assert_eq!(entries.len(), 2);
    assert!(matches!(&entries[0], (name, StoreEntry::Single(_)) if name == "scan"));
    assert!(matches!(&entries[1], (name, StoreEntry::ShardGroup(_)) if name == "sharded"));

    // Kind confusion between entry types is typed, not a decode crash.
    assert!(matches!(
        store.load_shard_group("scan"),
        Err(StoreError::EntryKind { is_group: false, .. })
    ));
    assert!(matches!(store.load_any("sharded"), Err(StoreError::EntryKind { is_group: true, .. })));
    assert!(matches!(store.load_shard_group("nope"), Err(StoreError::MissingEntry(_))));
}

#[test]
fn group_replacement_is_epoch_staged_and_reclaims_old_files() {
    let dir = TestDir::new("epochs");
    let points = dataset(600, 6);
    let store = Store::create(&dir).unwrap();

    build_sharded(&points, 4).save_into(&store, "idx").unwrap();
    let epoch1_files: Vec<String> = list_p2hs(&dir);
    assert_eq!(epoch1_files.len(), 5, "map file + 4 shards: {epoch1_files:?}");
    assert!(epoch1_files.iter().all(|f| f.contains(".g1.")));

    // Replace with a different shard count: new epoch, old files reclaimed.
    build_sharded(&points, 2).save_into(&store, "idx").unwrap();
    let epoch2_files = list_p2hs(&dir);
    assert_eq!(epoch2_files.len(), 3, "map file + 2 shards: {epoch2_files:?}");
    assert!(epoch2_files.iter().all(|f| f.contains(".g2.")));

    let restored = ShardedIndex::load_from(&store, "idx").unwrap();
    assert_eq!(restored.shard_count(), 2);
}

#[test]
fn stray_staged_files_from_a_crashed_save_are_ignored() {
    let dir = TestDir::new("crash");
    let points = dataset(500, 6);
    let store = Store::create(&dir).unwrap();
    let sharded = build_sharded(&points, 3);
    sharded.save_into(&store, "idx").unwrap();

    // Simulate a crash mid-save of epoch 2: some staged files exist, but the manifest
    // was never swapped. Readers must keep serving epoch 1 untouched.
    std::fs::write(dir.join("idx.g2.s0.p2hs"), b"half-written garbage").unwrap();
    std::fs::write(dir.join("idx.g2.map.p2hs.tmp"), b"tmp leftovers").unwrap();

    let restored = ShardedIndex::load_from(&store, "idx").unwrap();
    assert_eq!(restored.shard_count(), 3);
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 9).unwrap();
    for query in &queries {
        let a = sharded.search(query, &SearchParams::exact(5));
        let b = restored.search(query, &SearchParams::exact(5));
        assert_eq!(a.neighbors, b.neighbors);
    }

    // The next successful save claims epoch 2, overwriting the uncommitted stray
    // files, and supersedes the live epoch-1 files.
    build_sharded(&points, 2).save_into(&store, "idx").unwrap();
    assert_eq!(ShardedIndex::load_from(&store, "idx").unwrap().shard_count(), 2);
    assert!(!list_p2hs(&dir).iter().any(|f| f.contains(".g1.")), "epoch 1 reclaimed");
}

#[test]
fn corruption_anywhere_in_the_group_fails_loading_all_or_nothing() {
    let points = dataset(500, 6);

    // Corrupt one shard file.
    {
        let dir = TestDir::new("corrupt-shard");
        let store = Store::create(&dir).unwrap();
        build_sharded(&points, 3).save_into(&store, "idx").unwrap();
        let shard_file = dir.join("idx.g1.s1.p2hs");
        let mut bytes = std::fs::read(&shard_file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&shard_file, &bytes).unwrap();
        assert!(matches!(
            ShardedIndex::load_from(&store, "idx"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        assert!(store.load_entries().is_err(), "all-or-nothing");
    }

    // Corrupt the map file.
    {
        let dir = TestDir::new("corrupt-map");
        let store = Store::create(&dir).unwrap();
        build_sharded(&points, 3).save_into(&store, "idx").unwrap();
        let map_file = dir.join("idx.g1.map.p2hs");
        let mut bytes = std::fs::read(&map_file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(&map_file, &bytes).unwrap();
        assert!(matches!(
            ShardedIndex::load_from(&store, "idx"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    // Delete a shard file entirely.
    {
        let dir = TestDir::new("missing-shard");
        let store = Store::create(&dir).unwrap();
        build_sharded(&points, 3).save_into(&store, "idx").unwrap();
        std::fs::remove_file(dir.join("idx.g1.s2.p2hs")).unwrap();
        assert!(matches!(ShardedIndex::load_from(&store, "idx"), Err(StoreError::Io { .. })));
    }

    // Swap two shard files: each decodes fine, but the id maps no longer match the
    // shard contents — the cross-file consistency check must catch it.
    {
        let dir = TestDir::new("swapped-shards");
        let store = Store::create(&dir).unwrap();
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Contiguous { shards: 3 },
            ShardIndexKind::LinearScan,
        )
        .build(&points)
        .unwrap();
        sharded.save_into(&store, "idx").unwrap();
        let a = dir.join("idx.g1.s0.p2hs");
        let b = dir.join("idx.g1.s2.p2hs");
        let bytes_a = std::fs::read(&a).unwrap();
        let bytes_b = std::fs::read(&b).unwrap();
        std::fs::write(&a, &bytes_b).unwrap();
        std::fs::write(&b, &bytes_a).unwrap();
        // Contiguous thirds of 500 points have sizes 167/167/166, so the swap is a
        // count mismatch between id maps and shard contents.
        assert!(matches!(
            ShardedIndex::load_from(&store, "idx"),
            Err(StoreError::GroupInconsistent { .. })
        ));
    }
}

#[test]
fn single_replacement_is_epoch_staged_too() {
    // Replacing a single snapshot must never overwrite the live file in place: the
    // new bytes stage under a fresh epoch name and the manifest commit switches
    // readers over, exactly like shard groups.
    let dir = TestDir::new("single-epochs");
    let points = dataset(300, 5);
    let store = Store::create(&dir).unwrap();
    let scan = p2h_core::LinearScan::new(points.clone());

    let first = store.save("idx", &scan).unwrap();
    assert!(first.ends_with("idx.p2hs"));
    let original_bytes = std::fs::read(&first).unwrap();

    // Simulate a crashed replacement: stage the epoch file without a manifest commit.
    std::fs::write(dir.join("idx.e1.p2hs"), b"half-written").unwrap();
    let loaded: p2h_core::LinearScan = store.load("idx").unwrap();
    assert_eq!(loaded.points(), scan.points(), "readers still see the committed snapshot");

    // A successful replacement claims epoch 1 (overwriting the stray), commits, and
    // reclaims the superseded plain-name file.
    let second = store.save("idx", &scan).unwrap();
    assert!(second.ends_with("idx.e1.p2hs"));
    assert!(!first.exists(), "superseded snapshot reclaimed after the commit");
    assert_eq!(std::fs::read(&second).unwrap(), original_bytes);
    let third = store.save("idx", &scan).unwrap();
    assert!(third.ends_with("idx.e2.p2hs"));
    assert!(!second.exists());
    let reloaded: p2h_core::LinearScan = store.load("idx").unwrap();
    assert_eq!(reloaded.points(), scan.points());
}

#[test]
fn single_snapshot_saves_still_round_trip_next_to_groups() {
    // Regression guard: the manifest refactor must not disturb single-index saves.
    let dir = TestDir::new("single");
    let points = dataset(300, 5);
    let store = Store::create(&dir).unwrap();
    let scan = p2h_core::LinearScan::new(points.clone());
    store.save("scan", &scan).unwrap();
    build_sharded(&points, 2).save_into(&store, "group").unwrap();

    let loaded: p2h_core::LinearScan = store.load("scan").unwrap();
    let queries = generate_queries(&points, 3, QueryDistribution::DataDifference, 2).unwrap();
    for query in &queries {
        assert_eq!(
            scan.search(query, &SearchParams::exact(4)).neighbors,
            loaded.search(query, &SearchParams::exact(4)).neighbors
        );
    }
    assert_eq!(store.is_shard_group("scan").unwrap(), Some(false));
    assert_eq!(store.is_shard_group("missing").unwrap(), None);
}

fn list_p2hs(dir: &std::path::Path) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".p2hs"))
        .collect();
    files.sort();
    files
}

// ---------------------------------------------------------------------------
// Zero-copy (LoadMode::Mmap) shard groups
// ---------------------------------------------------------------------------

/// Bit-level equality of two indexes over a query batch (ids + distance bits).
fn assert_answers_identical(a: &dyn P2hIndex, b: &dyn P2hIndex, points: &PointSet, seed: u64) {
    let queries = generate_queries(points, 8, QueryDistribution::DataDifference, seed).unwrap();
    for params in [SearchParams::exact(10), SearchParams::approximate(10, points.len() / 2)] {
        for query in &queries {
            let ra = a.search(query, &params);
            let rb = b.search(query, &params);
            assert_eq!(ra.neighbors.len(), rb.neighbors.len());
            for (x, y) in ra.neighbors.iter().zip(&rb.neighbors) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
    }
}

#[test]
fn shard_groups_cold_start_zero_copy_under_mmap() {
    use p2h_store::LoadMode;
    let dir = TestDir::new("mmap-group");
    let points = dataset(1_000, 8);
    let sharded = build_sharded(&points, 3);
    let store = Store::create(&dir).unwrap();
    sharded.save_into(&store, "g").unwrap();

    let copied = ShardedIndex::load_from(&store.clone().with_mode(LoadMode::Copy), "g").unwrap();
    let mapped = ShardedIndex::load_from(&store.with_mode(LoadMode::Mmap), "g").unwrap();
    // One region per epoch file: every shard's points view its own snapshot mapping.
    assert_eq!(mapped.shard_count(), copied.shard_count());
    assert_answers_identical(&copied, &mapped, &points, 21);
    assert_answers_identical(&sharded, &mapped, &points, 22);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(5))]

    /// `LoadMode::Mmap` ≡ `LoadMode::Copy` ≡ the in-memory original, bit-identically,
    /// across shard counts and both partitioners (the single-index half of this
    /// property lives in `p2h-store`'s zero-copy suite).
    #[test]
    fn mmap_equals_copy_for_shard_groups(
        shards in 1usize..6,
        partitioner_kind in 0usize..2,
        seed in 0u64..500,
    ) {
        use p2h_store::LoadMode;
        let dir = TestDir::new(&format!("mmap-prop-{shards}-{partitioner_kind}-{seed}"));
        let points = dataset(600, 6);
        let partitioner = if partitioner_kind == 1 {
            Partitioner::Hash { shards }
        } else {
            Partitioner::Contiguous { shards }
        };
        let sharded =
            ShardedIndexBuilder::new(partitioner, ShardIndexKind::BcTree { leaf_size: 24 })
                .with_seed(seed)
                .build(&points)
                .unwrap();
        let store = Store::create(&dir).unwrap();
        sharded.save_into(&store, "g").unwrap();
        let copied =
            ShardedIndex::load_from(&store.clone().with_mode(LoadMode::Copy), "g").unwrap();
        let mapped = ShardedIndex::load_from(&store.with_mode(LoadMode::Mmap), "g").unwrap();
        assert_answers_identical(&sharded, &copied, &points, seed ^ 1);
        assert_answers_identical(&copied, &mapped, &points, seed ^ 2);
    }
}
