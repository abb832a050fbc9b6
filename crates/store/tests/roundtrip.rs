//! Round-trip property: `load(save(index))` answers queries bit-identically to the
//! in-memory original, for every index kind, on ≥5k-point datasets.

mod common;

use common::TestDir;
use p2h_balltree::{BallTree, BallTreeBuilder, BcTree, BcTreeBuilder};
use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex, PointSet, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_store::{snapshot_meta, IndexKind, LoadedIndex, Snapshot, Store, StoreEntry, StoreError};

fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
    SyntheticDataset::new(
        "store-roundtrip",
        n,
        dim,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.4 },
        seed,
    )
    .generate()
    .unwrap()
}

fn queries(ps: &PointSet, count: usize) -> Vec<HyperplaneQuery> {
    generate_queries(ps, count, QueryDistribution::DataDifference, 321).unwrap()
}

/// Asserts that two indexes return *bit-identical* results: same neighbor ids, same
/// distances down to the float bits, for exact and budgeted searches.
fn assert_bit_identical(original: &dyn P2hIndex, loaded: &dyn P2hIndex, ps: &PointSet) {
    assert_eq!(original.len(), loaded.len());
    assert_eq!(original.dim(), loaded.dim());
    for (qi, q) in queries(ps, 10).iter().enumerate() {
        for params in
            [SearchParams::exact(1), SearchParams::exact(10), SearchParams::approximate(10, 500)]
        {
            let a = original.search(q, &params);
            let b = loaded.search(q, &params);
            assert_eq!(a.neighbors, b.neighbors, "query {qi}, params {params:?}");
            let bits = |r: &p2h_core::SearchResult| {
                r.neighbors.iter().map(|n| n.distance.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "query {qi}: distances must match bitwise");
        }
    }
}

#[test]
fn ball_tree_round_trips_bit_identically() {
    let ps = dataset(6_000, 16, 1);
    let tree = BallTreeBuilder::new(64).with_seed(9).build(&ps).unwrap();
    let loaded = BallTree::decode_snapshot(&tree.encode_snapshot()).unwrap();
    assert_eq!(loaded.nodes(), tree.nodes());
    assert_eq!(loaded.centers(), tree.centers());
    assert_eq!(loaded.original_ids(), tree.original_ids());
    assert_eq!(loaded.leaf_size(), tree.leaf_size());
    assert_eq!(loaded.build_seed(), 9);
    loaded.check_invariants().unwrap();
    assert_bit_identical(&tree, &loaded, &ps);
}

#[test]
fn bc_tree_round_trips_bit_identically() {
    let ps = dataset(6_000, 16, 2);
    let tree = BcTreeBuilder::new(64).with_seed(4).build(&ps).unwrap();
    let loaded = BcTree::decode_snapshot(&tree.encode_snapshot()).unwrap();
    assert_eq!(loaded.nodes(), tree.nodes());
    assert_eq!(loaded.centers(), tree.centers());
    assert_eq!(loaded.center_norms(), tree.center_norms());
    assert_eq!(loaded.leaf_aux(), tree.leaf_aux());
    assert_eq!(loaded.build_seed(), 4);
    loaded.check_invariants().unwrap();
    assert_bit_identical(&tree, &loaded, &ps);
}

#[test]
fn linear_scan_round_trips_bit_identically() {
    let ps = dataset(5_000, 12, 3);
    let scan = LinearScan::new(ps.clone());
    let loaded = LinearScan::decode_snapshot(&scan.encode_snapshot()).unwrap();
    assert_eq!(loaded.points(), scan.points());
    assert_bit_identical(&scan, &loaded, &ps);
}

#[test]
fn snapshot_meta_peeks_without_full_load() {
    let ps = dataset(5_000, 10, 4);
    let tree = BcTreeBuilder::new(50).with_seed(77).build(&ps).unwrap();
    let bytes = tree.encode_snapshot();
    let (kind, meta) = snapshot_meta(&bytes).unwrap();
    assert_eq!(kind, IndexKind::BcTree);
    assert_eq!(meta.dim, 11);
    assert_eq!(meta.count, 5_000);
    assert_eq!(meta.leaf_size, 50);
    assert_eq!(meta.build_seed, 77);
    assert_eq!(meta.node_count, tree.node_count());
    assert!(meta.note.contains("kernel-backend independent"), "{}", meta.note);
}

#[test]
fn store_saves_and_loads_named_indexes() {
    let dir = TestDir::new("store");
    let ps = dataset(5_000, 12, 5);
    let ball = BallTreeBuilder::new(100).with_seed(1).build(&ps).unwrap();
    let bc = BcTreeBuilder::new(100).with_seed(1).build(&ps).unwrap();
    let scan = LinearScan::new(ps.clone());

    let store = Store::create(&dir).unwrap();
    store.save("ball", &ball).unwrap();
    store.save("bc", &bc).unwrap();
    store.save("scan", &scan).unwrap();
    assert_eq!(store.names().unwrap(), vec!["ball", "bc", "scan"]);

    // Re-open from scratch (a fresh process would do exactly this).
    let reopened = Store::open(&dir).unwrap();
    let loaded: BallTree = reopened.load("ball").unwrap();
    assert_bit_identical(&ball, &loaded, &ps);
    let loaded: BcTree = reopened.load("bc").unwrap();
    assert_bit_identical(&bc, &loaded, &ps);

    // Kind-dispatched loading.
    let all: Vec<(String, LoadedIndex)> = reopened
        .load_entries()
        .unwrap()
        .into_iter()
        .map(|(name, entry)| match entry {
            StoreEntry::Single(index) => (name, index),
            _ => panic!("`{name}` is a single index"),
        })
        .collect();
    assert_eq!(all.len(), 3);
    let kinds: Vec<IndexKind> = all.iter().map(|(_, index)| index.kind()).collect();
    assert_eq!(kinds, vec![IndexKind::BallTree, IndexKind::BcTree, IndexKind::LinearScan]);
    for (name, index) in &all {
        let original: &dyn P2hIndex = match name.as_str() {
            "ball" => &ball,
            "bc" => &bc,
            _ => &scan,
        };
        assert_bit_identical(original, index.as_index(), &ps);
    }

    // Asking for the wrong concrete type is a typed error.
    assert!(matches!(
        reopened.load::<BcTree>("ball"),
        Err(StoreError::KindMismatch { expected: IndexKind::BcTree, found: IndexKind::BallTree })
    ));
    assert!(matches!(reopened.load::<BallTree>("missing"), Err(StoreError::MissingEntry(_))));

    // Re-saving under an existing name replaces the snapshot.
    let smaller = BallTreeBuilder::new(32).with_seed(2).build(&ps).unwrap();
    store.save("ball", &smaller).unwrap();
    let reloaded: BallTree = store.load("ball").unwrap();
    assert_eq!(reloaded.leaf_size(), 32);
    assert_eq!(store.names().unwrap().len(), 3);
}

#[test]
fn store_rejects_bad_names_and_missing_dirs() {
    let parent = TestDir::new("validation");
    let dir = parent.join("not-created-yet");
    assert!(matches!(Store::open(&dir), Err(StoreError::Io { .. })));
    let store = Store::create(&dir).unwrap();
    let ps = dataset(100, 4, 6);
    let scan = LinearScan::new(ps);
    for bad in ["", "../escape", "has space", ".hidden"] {
        assert!(matches!(store.save(bad, &scan), Err(StoreError::InvalidName(_))), "{bad}");
    }
}
