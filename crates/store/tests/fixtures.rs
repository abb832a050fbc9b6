//! Compatibility fixtures: bytes written by commit `69f52f3`, the last one whose checksum
//! was the byte-at-a-time loop in `p2h-store`. `tests/fixtures/` holds one BC-Tree (40
//! points, 17 augmented dimensions) as a v2 and as a v1 snapshot, and a WAL segment with
//! an insert batch and a delete. Whichever arm of `p2h_core::kernels::crc32` runs must
//! accept every checksum in them, write the same bytes back, and refuse a flipped bit
//! with the same typed error — under both loaders.
//!
//! One `#[test]`: `force_scalar` is process-global.

mod common;

use std::path::{Path, PathBuf};

use common::TestDir;
use p2h_bctree::BcTree;
use p2h_core::{kernels, P2hIndex};
use p2h_store::format::{SnapshotSource, SnapshotWriter, HEADER_LEN, SECTION_HEADER_LEN};
use p2h_store::wal::WAL_HEADER_LEN;
use p2h_store::{
    replay_wal, IndexKind, LoadMode, MmapRegion, Snapshot, StoreError, WalHeader, WalOp, WalWriter,
    FORMAT_VERSION_V1, SECTION_ALIGN,
};

const SNAPSHOT_V1: &[u8] = include_bytes!("fixtures/bctree_v1.p2hs");
const SNAPSHOT_V2: &[u8] = include_bytes!("fixtures/bctree_v2.p2hs");
const WAL_SEGMENT: &[u8] = include_bytes!("fixtures/segment.wal");

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

fn snapshots_load_reencode_and_refuse_a_flipped_bit() {
    let (fixture_meta, fixture_rest) = meta_and_rest(SNAPSHOT_V2);
    let same_backend = String::from_utf8_lossy(fixture_meta)
        .contains(&format!("`{}` backend", kernels::active_backend().label()));
    for mode in [LoadMode::Copy, LoadMode::Mmap] {
        for name in ["bctree_v2.p2hs", "bctree_v1.p2hs"] {
            let tree = BcTree::load_snapshot_with(&fixture(name), mode).unwrap();
            assert_eq!((tree.len(), tree.dim()), (40, 17), "{name}, {mode:?}");
            // Both files hold the same tree, and a save writes the current container.
            let saved = tree.encode_snapshot();
            assert_eq!(meta_and_rest(&saved).1, fixture_rest, "{name}, {mode:?}");
            if same_backend {
                assert_eq!(saved, SNAPSHOT_V2, "{name}, {mode:?}");
            }
        }
    }

    // The v1 container of the same sections: the writer's checksums, byte for byte.
    let sections = v2_sections(SNAPSHOT_V2);
    let mut v1 = SnapshotWriter::with_version(IndexKind::BcTree, FORMAT_VERSION_V1);
    for &(tag, start, len) in &sections {
        v1.section(tag).extend_from_slice(&SNAPSHOT_V2[start..start + len]);
    }
    assert_eq!(v1.finish(), SNAPSHOT_V1);

    // One flipped payload bit in a section served by either arm: `META` (116 bytes) and
    // `PNTS` (2 720) are above the folding arm's minimum, `NORM` (60) is below it.
    for tag in [*b"META", *b"PNTS", *b"NORM"] {
        let &(_, start, len) = sections.iter().find(|s| s.0 == tag).unwrap();
        let mut flipped = SNAPSHOT_V2.to_vec();
        flipped[start + len / 2] ^= 0x04;
        let mapped = MmapRegion::from_bytes(flipped.clone());
        for src in [SnapshotSource::Bytes(&flipped), SnapshotSource::Mapped(&mapped)] {
            match BcTree::decode_snapshot_src(src) {
                Err(StoreError::ChecksumMismatch { section, stored, computed }) => {
                    assert_eq!(section, tag);
                    let header = start - SECTION_HEADER_LEN;
                    assert_eq!(stored.to_le_bytes(), SNAPSHOT_V2[header + 12..header + 16]);
                    assert_ne!(computed, stored);
                }
                other => panic!("flipped bit in {tag:?}: expected ChecksumMismatch, got {other:?}"),
            }
        }
    }
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

#[test]
fn bytes_written_by_the_parent_commit_hold_under_both_dispatch_settings() {
    let dir = TestDir::new("fixtures");
    for forced in [true, false] {
        kernels::force_scalar(forced);
        snapshots_load_reencode_and_refuse_a_flipped_bit();
        wal_replays_reencodes_and_refuses_a_flipped_bit(&dir);
    }
}
