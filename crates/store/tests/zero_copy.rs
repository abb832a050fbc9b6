//! Zero-copy (format v2 + `LoadMode::Mmap`) loader tests: bit-identity against the
//! copying loader for every index kind, every-byte truncation hardening on the mapped
//! path (mirroring the v1/copying suite), alignment-violation handling, v1
//! compatibility, and the open-time sweep of crash-leftover epoch files.

mod common;

use common::TestDir;
use proptest::prelude::*;

use p2h_balltree::{BallTree, BallTreeBuilder, BcTree, BcTreeBuilder};
use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex, PointSet, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};
use p2h_store::format::{wire, SnapshotSource, SnapshotWriter, HEADER_LEN, SECTION_HEADER_LEN};
use p2h_store::{IndexKind, LoadMode, MmapRegion, Snapshot, Store, StoreError, FORMAT_VERSION_V1};

fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
    SyntheticDataset::new(
        "store-zero-copy",
        n,
        dim,
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.3 },
        seed,
    )
    .generate()
    .unwrap()
}

fn queries(ps: &PointSet, count: usize, seed: u64) -> Vec<HyperplaneQuery> {
    generate_queries(ps, count, QueryDistribution::DataDifference, seed).unwrap()
}

/// Bit-level equality of two indexes' answers (ids + distance bits), exact and
/// budgeted.
fn assert_bit_identical(a: &dyn P2hIndex, b: &dyn P2hIndex, ps: &PointSet, seed: u64) {
    for q in &queries(ps, 6, seed) {
        for params in [SearchParams::exact(8), SearchParams::approximate(8, ps.len() / 2)] {
            let ra = a.search(q, &params);
            let rb = b.search(q, &params);
            assert_eq!(ra.neighbors.len(), rb.neighbors.len());
            for (x, y) in ra.neighbors.iter().zip(&rb.neighbors) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
    }
}

#[test]
fn mmap_loads_are_bit_identical_for_every_kind() {
    let ps = dataset(2_500, 10, 41);
    let dir = TestDir::new("all-kinds");
    let store = Store::create(&dir).unwrap().with_mode(LoadMode::Copy);

    store.save("scan", &LinearScan::new(ps.clone())).unwrap();
    store.save("ball", &BallTreeBuilder::new(32).with_seed(3).build(&ps).unwrap()).unwrap();
    store.save("bc", &BcTreeBuilder::new(32).with_seed(3).build(&ps).unwrap()).unwrap();
    store.save("nh", &NhIndex::build(&ps, NhParams::new(2, 8).with_seed(5)).unwrap()).unwrap();
    store.save("fh", &FhIndex::build(&ps, FhParams::new(2, 8, 3).with_seed(5)).unwrap()).unwrap();

    let mapped = store.clone().with_mode(LoadMode::Mmap);
    assert_eq!(mapped.load_mode(), LoadMode::Mmap);

    // Every kind answers bit-identically under both loaders, and the mapped loads
    // really are zero-copy (the point payload views the mapping, owning no heap).
    let scan_copy: LinearScan = store.load("scan").unwrap();
    let scan_mmap: LinearScan = mapped.load("scan").unwrap();
    assert!(scan_mmap.points().is_mapped() && !scan_copy.points().is_mapped());
    assert_bit_identical(&scan_copy, &scan_mmap, &ps, 1);

    let ball_copy: BallTree = store.load("ball").unwrap();
    let ball_mmap: BallTree = mapped.load("ball").unwrap();
    assert!(ball_mmap.points().is_mapped());
    assert!(
        ball_mmap.structure_size_bytes() < ball_copy.structure_size_bytes(),
        "mapped structures must not count shared bytes as owned footprint"
    );
    assert_eq!(ball_mmap.centers(), ball_copy.centers());
    assert_eq!(ball_mmap.original_ids(), ball_copy.original_ids());
    assert_bit_identical(&ball_copy, &ball_mmap, &ps, 2);

    let bc_copy: BcTree = store.load("bc").unwrap();
    let bc_mmap: BcTree = mapped.load("bc").unwrap();
    assert!(bc_mmap.points().is_mapped());
    assert_eq!(bc_mmap.center_norms(), bc_copy.center_norms());
    assert_bit_identical(&bc_copy, &bc_mmap, &ps, 3);

    let nh_copy: NhIndex = store.load("nh").unwrap();
    let nh_mmap: NhIndex = mapped.load("nh").unwrap();
    assert!(nh_mmap.points().is_mapped());
    assert_eq!(nh_mmap.tables().values(), nh_copy.tables().values());
    assert_eq!(nh_mmap.tables().ids(), nh_copy.tables().ids());
    assert!(
        nh_mmap.index_size_bytes() < nh_copy.index_size_bytes(),
        "mapped projection tables are shared, not owned"
    );
    assert_bit_identical(&nh_copy, &nh_mmap, &ps, 4);

    let fh_copy: FhIndex = store.load("fh").unwrap();
    let fh_mmap: FhIndex = mapped.load("fh").unwrap();
    assert!(fh_mmap.points().is_mapped());
    for p in 0..fh_copy.partition_count() {
        assert_eq!(fh_mmap.partition_ids(p), fh_copy.partition_ids(p));
    }
    assert_bit_identical(&fh_copy, &fh_mmap, &ps, 5);
}

#[test]
fn load_all_and_entries_work_under_mmap() {
    let ps = dataset(800, 8, 47);
    let dir = TestDir::new("load-all");
    let store = Store::create(&dir).unwrap();
    store.save("a", &LinearScan::new(ps.clone())).unwrap();
    store.save("b", &BallTreeBuilder::new(16).build(&ps).unwrap()).unwrap();

    let mapped = Store::open_with(&dir, LoadMode::Mmap).unwrap();
    let all = mapped.load_all().unwrap();
    assert_eq!(all.len(), 2);
    for (name, loaded) in &all {
        let copied = store.clone().with_mode(LoadMode::Copy).load_any(name).unwrap();
        assert_bit_identical(loaded.as_index(), copied.as_index(), &ps, 6);
    }
}

#[test]
fn every_byte_truncation_is_typed_on_the_mapped_path_too() {
    // Mirrors the copying suite's every-byte-boundary sweep, but decodes through a
    // mapped source: no prefix may panic, over-allocate, or cast unaligned.
    let full = BallTreeBuilder::new(16).build(&dataset(300, 6, 43)).unwrap().encode_snapshot();
    let region = MmapRegion::from_bytes(full.clone());
    assert!(BallTree::decode_snapshot_src(SnapshotSource::Mapped(&region)).is_ok());
    for cut in 0..full.len() {
        let region = MmapRegion::from_bytes(full[..cut].to_vec());
        match BallTree::decode_snapshot_src(SnapshotSource::Mapped(&region)) {
            Err(
                StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::SectionLength { .. }
                | StoreError::Misaligned { .. },
            ) => {}
            other => panic!("mapped prefix of {cut} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn nonzero_padding_is_a_typed_misalignment_error() {
    // A v2 snapshot whose inter-section padding carries nonzero bytes is rejected with
    // `StoreError::Misaligned` — the padding is the alignment contract, so tampering
    // with it must not be silently tolerated (nor reachable by an unaligned cast).
    let scan = LinearScan::new(dataset(33, 5, 44));
    let bytes = scan.encode_snapshot();
    // Find a section whose payload length is not a multiple of 8 (META ends with the
    // note length; its payload is 44 bytes → 4 pad bytes follow).
    let mut tampered = bytes.clone();
    let meta_payload_len =
        u64::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 12].try_into().unwrap()) as usize;
    assert!(!meta_payload_len.is_multiple_of(8), "test needs a padded section");
    let pad_at = HEADER_LEN + SECTION_HEADER_LEN + meta_payload_len;
    tampered[pad_at] = 0xAB;
    match LinearScan::decode_snapshot(&tampered) {
        Err(StoreError::Misaligned { section, .. }) => assert_eq!(&section, b"META"),
        other => panic!("expected Misaligned, got {other:?}"),
    }
    // Same outcome through the mapped path.
    let region = MmapRegion::from_bytes(tampered);
    assert!(matches!(
        LinearScan::decode_snapshot_src(SnapshotSource::Mapped(&region)),
        Err(StoreError::Misaligned { .. })
    ));
}

/// Hand-writes a v1 (12-byte header, unpadded) LinearScan snapshot.
fn encode_v1_linear_scan(points: &PointSet) -> Vec<u8> {
    let mut writer = SnapshotWriter::with_version(IndexKind::LinearScan, FORMAT_VERSION_V1);
    let meta = writer.section(*b"META");
    wire::put_u64(meta, points.dim() as u64);
    wire::put_u64(meta, points.len() as u64);
    wire::put_u64(meta, 0);
    wire::put_u64(meta, 0);
    wire::put_u64(meta, 0);
    wire::put_u32(meta, 0); // empty note
    wire::put_f32_slice(writer.section(*b"PNTS"), points.as_flat());
    writer.finish()
}

/// Hand-writes a v1 NH snapshot with the legacy *interleaved* `(value, id)` PROJ
/// layout, exercising the layout branch of the v1 reader.
fn encode_v1_nh(nh: &NhIndex) -> Vec<u8> {
    let points = nh.points();
    let mut writer = SnapshotWriter::with_version(IndexKind::Nh, FORMAT_VERSION_V1);
    let meta = writer.section(*b"META");
    wire::put_u64(meta, points.dim() as u64);
    wire::put_u64(meta, points.len() as u64);
    wire::put_u64(meta, 0);
    wire::put_u64(meta, 0);
    wire::put_u64(meta, nh.params().seed);
    wire::put_u32(meta, 0);
    let params = writer.section(*b"NHPR");
    wire::put_u64(params, nh.params().lambda_factor as u64);
    wire::put_u64(params, nh.params().tables as u64);
    wire::put_u64(params, nh.params().collision_threshold as u64);
    wire::put_u64(params, nh.params().seed);
    wire::put_f32(params, nh.alignment_constant());
    wire::put_f32_slice(writer.section(*b"PNTS"), points.as_flat());
    let transform = writer.section(*b"TPRS");
    wire::put_u64(transform, nh.transform().input_dim() as u64);
    wire::put_f32(transform, nh.transform().scale());
    wire::put_u64(transform, nh.transform().pairs().len() as u64);
    for &(i, j) in nh.transform().pairs() {
        wire::put_u32(transform, i);
        wire::put_u32(transform, j);
    }
    let tables = nh.tables();
    let proj = writer.section(*b"PROJ");
    wire::put_u64(proj, tables.dim() as u64);
    wire::put_u64(proj, tables.table_count() as u64);
    wire::put_u64(proj, tables.len() as u64);
    wire::put_f32_slice(proj, tables.directions());
    for t in 0..tables.table_count() {
        for (value, id) in tables.table_values(t).iter().zip(tables.table_ids(t)) {
            wire::put_f32(proj, *value);
            wire::put_u32(proj, *id);
        }
    }
    writer.finish()
}

#[test]
fn v1_snapshots_still_load_via_the_copying_path() {
    let ps = dataset(900, 8, 45);

    let scan = LinearScan::new(ps.clone());
    let v1 = encode_v1_linear_scan(&ps);
    assert_ne!(v1[4], 2, "test must exercise a genuine v1 container");
    let loaded = LinearScan::decode_snapshot(&v1).unwrap();
    assert_bit_identical(&scan, &loaded, &ps, 7);
    // Every-byte truncation of the v1 container stays typed as well.
    for cut in 0..v1.len() {
        assert!(LinearScan::decode_snapshot(&v1[..cut]).is_err(), "v1 prefix {cut}");
    }

    // A mapped source on a v1 file silently demotes to copying: it loads fine and
    // owns its arrays (no zero-copy view is possible without alignment).
    let region = MmapRegion::from_bytes(v1);
    let demoted = LinearScan::decode_snapshot_src(SnapshotSource::Mapped(&region)).unwrap();
    assert!(!demoted.points().is_mapped());
    assert_bit_identical(&scan, &demoted, &ps, 7);

    // NH exercises the interleaved v1 PROJ layout.
    let nh = NhIndex::build(&ps, NhParams::new(2, 6).with_seed(9)).unwrap();
    let v1 = encode_v1_nh(&nh);
    let loaded = NhIndex::decode_snapshot(&v1).unwrap();
    assert_eq!(loaded.tables().values(), nh.tables().values());
    assert_eq!(loaded.tables().ids(), nh.tables().ids());
    assert_bit_identical(&nh, &loaded, &ps, 8);
}

#[test]
fn crash_leftover_epoch_files_are_swept_on_open() {
    let ps = dataset(200, 6, 46);
    let dir = TestDir::new("sweep");
    let store = Store::create(&dir).unwrap();
    store.save("live", &LinearScan::new(ps.clone())).unwrap();
    // Replace once so the live entry sits under an epoch file name itself — the sweep
    // must distinguish *referenced* epoch files from leftovers.
    store.save("live", &LinearScan::new(ps)).unwrap();
    let live_file = store.snapshot_path("live").unwrap();
    assert!(live_file.ends_with("live.e1.p2hs"));

    // Simulated crash leftovers: a staged-but-uncommitted single replacement, staged
    // group files, and a temp file — backdated past the sweep grace window, as a
    // genuine crash leftover would be by the time the store reopens. A plain
    // unreferenced `<name>.p2hs` is NOT touched (conservative: only the store's own
    // staging patterns are reclaimed), and a *freshly* staged file is NOT touched
    // either (it may belong to a concurrent writer racing this open).
    let backdate = |path: &std::path::Path| {
        let old = std::time::SystemTime::now() - 2 * p2h_store::SWEEP_GRACE;
        std::fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(old))
            .expect("backdate mtime");
    };
    for stale in ["live.e2.p2hs", "gone.g3.map.p2hs", "gone.g3.s0.p2hs", "live.p2hs.tmp"] {
        let path = dir.join(stale);
        std::fs::write(&path, b"leftover").unwrap();
        backdate(&path);
    }
    std::fs::write(dir.join("unmanaged.p2hs"), b"user data").unwrap();
    backdate(&dir.join("unmanaged.p2hs"));
    std::fs::write(dir.join("inflight.e9.p2hs"), b"being staged right now").unwrap();

    let reopened = Store::open(&dir).unwrap();
    assert!(live_file.exists(), "live entry must survive the sweep");
    assert!(dir.join("unmanaged.p2hs").exists(), "plain files are not the store's to delete");
    assert!(
        dir.join("inflight.e9.p2hs").exists(),
        "freshly staged files are inside the grace window and must survive"
    );
    for stale in ["live.e2.p2hs", "gone.g3.map.p2hs", "gone.g3.s0.p2hs", "live.p2hs.tmp"] {
        assert!(!dir.join(stale).exists(), "`{stale}` must be swept on open");
    }
    // The surviving entry still loads.
    let _: LinearScan = reopened.load("live").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `LoadMode::Mmap` ≡ `LoadMode::Copy` bit-identically across data shapes and all
    /// five index kinds (shard groups are covered by the equivalent proptest in
    /// `p2h-shard`).
    #[test]
    fn mmap_equals_copy_bitwise(n in 120usize..600, dim in 4usize..12, seed in 0u64..1000) {
        let ps = dataset(n, dim, seed);
        let dir = TestDir::new("prop");
        let store = Store::create(&dir).unwrap().with_mode(LoadMode::Copy);
        store.save("scan", &LinearScan::new(ps.clone())).unwrap();
        store.save("ball", &BallTreeBuilder::new(24).with_seed(seed).build(&ps).unwrap()).unwrap();
        store.save("bc", &BcTreeBuilder::new(24).with_seed(seed).build(&ps).unwrap()).unwrap();
        store.save("nh", &NhIndex::build(&ps, NhParams::new(2, 4).with_seed(seed)).unwrap()).unwrap();
        store.save("fh", &FhIndex::build(&ps, FhParams::new(2, 4, 2).with_seed(seed)).unwrap()).unwrap();
        let mapped = store.clone().with_mode(LoadMode::Mmap);
        for name in ["scan", "ball", "bc", "nh", "fh"] {
            let a = store.load_any(name).unwrap();
            let b = mapped.load_any(name).unwrap();
            assert_bit_identical(a.as_index(), b.as_index(), &ps, seed ^ 0xff);
        }
    }
}
