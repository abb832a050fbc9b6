//! Compatibility fixtures. `tests/fixtures/` holds bytes written by commit `69f52f3`, the
//! last one whose checksum was the byte-at-a-time loop in `p2h-store`: one BC-Tree (40
//! points, 17 augmented dimensions) as a v2 and as a v1 snapshot, and a WAL segment with
//! an insert batch and a delete. It also holds a v2 Ball-Tree snapshot (40 points, 17
//! augmented dimensions, `N0` 8) written by commit `c23f8a1`, the last one with a
//! Ball-Tree builder of its own (centroid centers, unsorted leaves), and a larger v2
//! BC-Tree (1 501 points, 33 augmented dimensions, `N0` 32) written by commit `77bbbd3`,
//! the last one that encoded a snapshot into one buffer before writing it: its `PNTS`
//! (198 132 bytes) is three 64 KiB write chunks plus a tail that is not a whole number of
//! 16-byte CRC lanes, so re-encoding it byte for byte checks the streaming writer's
//! checksum of a multi-chunk section. Whichever arm of `p2h_core::kernels::crc32` runs must accept
//! every checksum in them, write the same bytes back, and refuse a flipped bit with the
//! same typed error — under both loaders — and the Ball-Tree must still answer exactly
//! like a linear scan.
//!
//! `nh_v2.p2hs` is a v2 NH snapshot (40 points, 17 augmented dimensions, kind tag 3)
//! written by commit `149755d`, the last one that persisted the NH/FH hashing baselines.
//! Tags 3 and 4 are retired: those bytes, and the same bytes tagged 4 (FH), must be
//! refused with `UnknownKind` by the header reader, by `Store::load_any` and by
//! `Engine::from_store_with` on a store whose manifest lists the file, under both
//! loaders.
//!
//! One `#[test]`: `force_scalar` is process-global.

mod common;

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use common::TestDir;
use p2h_balltree::{BallTree, BcTree};
use p2h_core::{kernels, LinearScan, P2hIndex, PointSet, SearchResult};
use p2h_data::{generate_queries, QueryDistribution};
use p2h_engine::Engine;
use p2h_store::format::{
    SnapshotReader, SnapshotSource, SnapshotWriter, HEADER_LEN, SECTION_HEADER_LEN,
};
use p2h_store::wal::WAL_HEADER_LEN;
use p2h_store::{
    replay_wal, IndexKind, LoadMode, MmapRegion, Snapshot, Store, StoreError, WalHeader, WalOp,
    WalWriter, FORMAT_VERSION_V1, SECTION_ALIGN,
};

const SNAPSHOT_V1: &[u8] = include_bytes!("fixtures/bctree_v1.p2hs");
const SNAPSHOT_V2: &[u8] = include_bytes!("fixtures/bctree_v2.p2hs");
const SNAPSHOT_V2_LARGE: &[u8] = include_bytes!("fixtures/bctree_v2_large.p2hs");
const BALLTREE_V2: &[u8] = include_bytes!("fixtures/balltree_v2.p2hs");
const WAL_SEGMENT: &[u8] = include_bytes!("fixtures/segment.wal");
const NH_V2: &[u8] = include_bytes!("fixtures/nh_v2.p2hs");

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The `(tag, payload offset, payload length)` of every section of a v2 container.
fn v2_sections(bytes: &[u8]) -> Vec<([u8; 4], usize, usize)> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let mut pos = HEADER_LEN;
    (0..count)
        .map(|_| {
            let tag = bytes[pos..pos + 4].try_into().unwrap();
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let start = pos + SECTION_HEADER_LEN;
            pos = (start + len).next_multiple_of(SECTION_ALIGN);
            (tag, start, len)
        })
        .collect()
}

/// Every section with its header (tag, length, checksum), `META` set apart: its note
/// names the kernel backend of the process that saved, so it is the one section whose
/// bytes depend on the host and on `force_scalar`.
fn meta_and_rest(bytes: &[u8]) -> (&[u8], Vec<&[u8]>) {
    let mut sections = v2_sections(bytes)
        .into_iter()
        .map(|(_, start, len)| &bytes[start - SECTION_HEADER_LEN..start + len]);
    (sections.next().unwrap(), sections.collect())
}

/// Loads every file of `names` under both loaders and checks that a save writes `v2`
/// back (`META` aside, unless this process runs the writer's kernel backend), and that
/// one flipped payload bit in each section of `flip` is refused with exactly
/// `ChecksumMismatch` from either source. Returns the trees loaded.
fn load_reencode_and_refuse_flips<T: Snapshot + Debug>(
    names: &[&str],
    v2: &[u8],
    flip: [[u8; 4]; 3],
) -> Vec<T> {
    let (fixture_meta, fixture_rest) = meta_and_rest(v2);
    let same_backend = String::from_utf8_lossy(fixture_meta)
        .contains(&format!("`{}` backend", kernels::active_backend().label()));
    let mut trees = Vec::new();
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        for name in names {
            let tree = T::load_snapshot_with(&fixture(name), mode).unwrap();
            // All files of `names` hold the same tree, and a save writes the current
            // container.
            let saved = tree.encode_snapshot();
            assert_eq!(meta_and_rest(&saved).1, fixture_rest, "{name}, {mode:?}");
            if same_backend {
                assert_eq!(saved, v2, "{name}, {mode:?}");
            }
            trees.push(tree);
        }
    }

    let sections = v2_sections(v2);
    for tag in flip {
        let &(_, start, len) = sections.iter().find(|s| s.0 == tag).unwrap();
        let mut flipped = v2.to_vec();
        flipped[start + len / 2] ^= 0x04;
        let mapped = MmapRegion::from_bytes(flipped.clone());
        for src in [SnapshotSource::Bytes(&flipped), SnapshotSource::Mapped(&mapped)] {
            match T::decode_snapshot_src(src) {
                Err(StoreError::ChecksumMismatch { section, stored, computed }) => {
                    assert_eq!(section, tag);
                    let header = start - SECTION_HEADER_LEN;
                    assert_eq!(stored.to_le_bytes(), v2[header + 12..header + 16]);
                    assert_ne!(computed, stored);
                }
                other => panic!("flipped bit in {tag:?}: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }
    trees
}

/// Checks a loaded Ball-Tree against a linear scan over its points in original order:
/// the same ids and the same distance bits.
fn answers_like_linear_scan(tree: &BallTree) {
    let dim = tree.dim();
    let mut rows = vec![0.0; tree.len() * dim];
    for (pos, &id) in tree.original_ids().iter().enumerate() {
        rows[id as usize * dim..][..dim].copy_from_slice(tree.points().point(pos));
    }
    let scan = LinearScan::new(PointSet::from_flat(dim, rows).unwrap());
    let queries = generate_queries(scan.points(), 8, QueryDistribution::DataDifference, 5).unwrap();
    let bits = |r: SearchResult| -> Vec<(usize, u32)> {
        r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    };
    for q in &queries {
        for k in [1, 5, 40] {
            assert_eq!(bits(tree.search_exact(q, k)), bits(scan.search_exact(q, k)), "k={k}");
        }
    }
}

fn snapshots_load_reencode_and_refuse_a_flipped_bit() {
    // One flipped payload bit in a section served by either arm: `META` (116 bytes),
    // `PNTS` (2 720) and the Ball-Tree's `NODE` (312) are above the folding arm's
    // minimum, `NORM` (60) is below it.
    for tree in load_reencode_and_refuse_flips::<BcTree>(
        &["bctree_v2.p2hs", "bctree_v1.p2hs"],
        SNAPSHOT_V2,
        [*b"META", *b"PNTS", *b"NORM"],
    ) {
        assert_eq!((tree.len(), tree.dim()), (40, 17));
    }
    for tree in load_reencode_and_refuse_flips::<BcTree>(
        &["bctree_v2_large.p2hs"],
        SNAPSHOT_V2_LARGE,
        [*b"PNTS", *b"CNTR", *b"AUXD"],
    ) {
        assert_eq!((tree.len(), tree.dim()), (1_501, 33));
    }
    for tree in load_reencode_and_refuse_flips::<BallTree>(
        &["balltree_v2.p2hs"],
        BALLTREE_V2,
        [*b"META", *b"PNTS", *b"NODE"],
    ) {
        assert_eq!((tree.len(), tree.dim()), (40, 17));
        answers_like_linear_scan(&tree);
    }

    // The v1 container of the same sections: the writer's checksums, byte for byte.
    let mut v1 = SnapshotWriter::with_version(IndexKind::BcTree, FORMAT_VERSION_V1);
    for (tag, start, len) in v2_sections(SNAPSHOT_V2) {
        v1.section(tag).put_bytes(&SNAPSHOT_V2[start..start + len]);
    }
    let mut written = Vec::new();
    v1.write_to(&mut written).unwrap();
    assert_eq!(written, SNAPSHOT_V1);
}

fn wal_replays_reencodes_and_refuses_a_flipped_bit(dir: &Path) {
    let replay = replay_wal(&fixture("segment.wal")).unwrap();
    assert_eq!(replay.header, WalHeader { epoch: 3, dim: 17, first_id: 40 });
    assert_eq!(replay.valid_len as usize, WAL_SEGMENT.len());
    assert!(!replay.torn_tail);
    let ids: Vec<_> = replay
        .ops
        .iter()
        .map(|op| match op {
            WalOp::Insert { id, .. } => (true, *id),
            WalOp::Delete { id } => (false, *id),
        })
        .collect();
    assert_eq!(ids, [(true, 40), (true, 41), (true, 42), (false, 41)]);

    let rewritten = dir.join("rewritten.wal");
    let mut writer = WalWriter::create(&rewritten, replay.header).unwrap();
    writer.append(&replay.ops[..3]).unwrap();
    writer.append(&replay.ops[3..]).unwrap();
    drop(writer);
    assert_eq!(std::fs::read(&rewritten).unwrap(), WAL_SEGMENT);
    std::fs::remove_file(&rewritten).unwrap();

    // A flipped bit in the first frame's point (a 73-byte payload, frames following).
    let mut flipped = WAL_SEGMENT.to_vec();
    flipped[WAL_HEADER_LEN + 40] ^= 0x04;
    let damaged = dir.join("damaged.wal");
    std::fs::write(&damaged, &flipped).unwrap();
    assert!(matches!(replay_wal(&damaged), Err(StoreError::WalCorrupt { .. })));
}

/// The NH fixture, and the same bytes with the kind byte set to FH's 4, are refused by
/// every loader with the retired tag, before any section is read.
fn retired_kinds_are_refused() {
    for tag in [3, 4] {
        let mut bytes = NH_V2.to_vec();
        bytes[6] = tag;
        assert!(matches!(SnapshotReader::new(&bytes), Err(StoreError::UnknownKind(t)) if t == tag));

        // A store whose manifest lists the file: saved as a linear scan, then replaced.
        let dir = TestDir::new("retired-kind");
        let store = Store::create(&*dir).unwrap();
        store.save("nh", &LinearScan::new(PointSet::from_flat(2, vec![0.0; 2]).unwrap())).unwrap();
        std::fs::write(store.snapshot_path("nh").unwrap(), &bytes).unwrap();
        for mode in [LoadMode::Copy, LoadMode::Mmap] {
            let loaded = Store::open_with(&*dir, mode).unwrap().load_any("nh");
            assert!(
                matches!(loaded, Err(StoreError::UnknownKind(t)) if t == tag),
                "tag {tag}, {mode:?}: {loaded:?}"
            );
            match Engine::from_store_with(&*dir, 1, mode) {
                Err(StoreError::UnknownKind(t)) => assert_eq!(t, tag, "{mode:?}"),
                Err(other) => panic!("tag {tag}, {mode:?}: expected UnknownKind, got {other:?}"),
                Ok(_) => panic!("tag {tag}, {mode:?}: an engine started from a retired kind"),
            }
        }
    }
}

#[test]
fn bytes_written_by_the_parent_commit_hold_under_both_dispatch_settings() {
    let dir = TestDir::new("fixtures");
    for forced in [true, false] {
        kernels::force_scalar(forced);
        snapshots_load_reencode_and_refuse_a_flipped_bit();
        wal_replays_reencodes_and_refuses_a_flipped_bit(&dir);
        retired_kinds_are_refused();
    }
}
