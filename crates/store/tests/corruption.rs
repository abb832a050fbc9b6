//! Negative tests: every way a snapshot file can be malformed must produce a typed
//! [`StoreError`] — no panics, no unbounded allocations, no silently wrong indexes.
//!
//! These scenarios mirror the `p2h-data` native-format hardening tests
//! (`crates/data/src/io.rs`): truncation at every byte boundary, bad magic, and
//! `dim × count` overflow, plus the container-specific cases (version, kind, CRC,
//! section framing).

use p2h_balltree::{BallTree, BallTreeBuilder, BcTree, BcTreeBuilder};
use p2h_core::{LinearScan, PointSet, Scalar};
use p2h_data::{DataDistribution, SyntheticDataset};
use p2h_store::format::HEADER_LEN;
use p2h_store::format::{wire, SnapshotWriter};
use p2h_store::{crc32, IndexKind, Snapshot, StoreError, SECTION_ALIGN};

fn dataset(n: usize, dim: usize) -> PointSet {
    SyntheticDataset::new(
        "store-corruption",
        n,
        dim,
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.2 },
        99,
    )
    .generate()
    .unwrap()
}

fn small_ball_snapshot() -> Vec<u8> {
    BallTreeBuilder::new(16).build(&dataset(300, 6)).unwrap().encode_snapshot()
}

/// Patches a section payload byte and fixes the section CRC so only the *semantic*
/// corruption remains (used to reach the validation layer behind the checksums).
fn patch_section(bytes: &mut [u8], tag: &[u8; 4], patch: impl FnOnce(&mut [u8])) {
    // Walk the v2 section chain: 16-byte file header, then 16-byte section headers
    // with payloads zero-padded to the 8-byte boundary.
    let mut pos = HEADER_LEN;
    loop {
        let found: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        if &found == tag {
            let payload_start = pos + 16;
            patch(&mut bytes[payload_start..payload_start + len]);
            let crc = crc32(&bytes[payload_start..payload_start + len]);
            bytes[pos + 12..pos + 16].copy_from_slice(&crc.to_le_bytes());
            return;
        }
        pos += 16 + len;
        pos = pos.next_multiple_of(SECTION_ALIGN);
    }
}

#[test]
fn truncation_at_every_byte_boundary_is_typed() {
    let full = small_ball_snapshot();
    assert!(BallTree::decode_snapshot(&full).is_ok());
    for cut in 0..full.len() {
        match BallTree::decode_snapshot(&full[..cut]) {
            Err(
                StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::SectionLength { .. },
            ) => {}
            other => panic!("prefix of {cut} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_wrong_version_unknown_kind() {
    let full = small_ball_snapshot();

    let mut bad_magic = full.clone();
    bad_magic[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        BallTree::decode_snapshot(&bad_magic),
        Err(StoreError::BadMagic { found: [b'N', b'O', b'P', b'E'] })
    ));

    let mut future_version = full.clone();
    future_version[4..6].copy_from_slice(&7u16.to_le_bytes());
    assert!(matches!(
        BallTree::decode_snapshot(&future_version),
        Err(StoreError::UnsupportedVersion { found: 7, supported: 2 })
    ));

    let mut alien_kind = full.clone();
    alien_kind[6] = 250;
    assert!(matches!(BallTree::decode_snapshot(&alien_kind), Err(StoreError::UnknownKind(250))));
}

#[test]
fn kind_mismatch_is_detected_before_payloads() {
    let scan_bytes = LinearScan::new(dataset(50, 4)).encode_snapshot();
    assert!(matches!(
        BallTree::decode_snapshot(&scan_bytes),
        Err(StoreError::KindMismatch {
            expected: IndexKind::BallTree,
            found: IndexKind::LinearScan
        })
    ));
    assert!(matches!(
        BcTree::decode_snapshot(&scan_bytes),
        Err(StoreError::KindMismatch { expected: IndexKind::BcTree, .. })
    ));
}

#[test]
fn every_section_is_checksum_protected() {
    let full = small_ball_snapshot();
    // Flip one bit in each section payload (without fixing the CRC): the loader must
    // report a checksum mismatch naming that section.
    let mut pos = HEADER_LEN;
    while pos < full.len() {
        let tag: [u8; 4] = full[pos..pos + 4].try_into().unwrap();
        let len = u64::from_le_bytes(full[pos + 4..pos + 12].try_into().unwrap()) as usize;
        assert!(len > 0, "section {tag:?} unexpectedly empty");
        let mut corrupt = full.clone();
        corrupt[pos + 16 + len / 2] ^= 0x01;
        match BallTree::decode_snapshot(&corrupt) {
            Err(StoreError::ChecksumMismatch { section, .. }) => assert_eq!(section, tag),
            other => panic!("flip in section {tag:?}: expected ChecksumMismatch, got {other:?}"),
        }
        pos += 16 + len;
        pos = pos.next_multiple_of(SECTION_ALIGN);
    }
}

#[test]
fn dim_count_overflow_is_typed_not_an_allocation() {
    // A hand-built snapshot whose META declares astronomically large dim × count: the
    // loader must fail with a typed overflow/truncation error before reserving memory.
    let mut writer = SnapshotWriter::new(IndexKind::LinearScan);
    let meta = writer.section(*b"META");
    wire::put_u64(meta, u64::MAX / 2); // dim
    wire::put_u64(meta, u64::MAX / 2); // count
    wire::put_u64(meta, 0); // node count
    wire::put_u64(meta, 0); // leaf size
    wire::put_u64(meta, 0); // seed
    wire::put_u32(meta, 0); // note length
    wire::put_f32_slice(writer.section(*b"PNTS"), &[0.0; 16]);
    let bytes = writer.finish();
    assert!(matches!(LinearScan::decode_snapshot(&bytes), Err(StoreError::Overflow { .. })));

    // dim × count fits, but the PNTS payload cannot hold it: truncated, not a panic.
    let mut writer = SnapshotWriter::new(IndexKind::LinearScan);
    let meta = writer.section(*b"META");
    wire::put_u64(meta, 1_000); // dim
    wire::put_u64(meta, 1 << 40); // count
    wire::put_u64(meta, 0);
    wire::put_u64(meta, 0);
    wire::put_u64(meta, 0);
    wire::put_u32(meta, 0);
    wire::put_f32_slice(writer.section(*b"PNTS"), &[0.0; 16]);
    let bytes = writer.finish();
    assert!(matches!(
        LinearScan::decode_snapshot(&bytes),
        Err(StoreError::Truncated { .. }) | Err(StoreError::Overflow { .. })
    ));
}

#[test]
fn structurally_invalid_trees_are_rejected_after_checksums() {
    // Semantic corruption with valid CRCs: a node array whose root child id points out
    // of range. The NODE section starts with the root: center_offset u32, radius f32,
    // start u32, end u32, left u32, right u32 — patch `left` (bytes 16..20).
    let mut bytes = small_ball_snapshot();
    patch_section(&mut bytes, b"NODE", |payload| {
        payload[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        payload[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    // Root becomes a "leaf" covering 300 points with N0 = 16 → structural error.
    assert!(matches!(
        BallTree::decode_snapshot(&bytes),
        Err(StoreError::Invalid(p2h_core::Error::Corrupt(_)))
    ));

    // An id mapping that is not a permutation.
    let mut bytes = small_ball_snapshot();
    patch_section(&mut bytes, b"IDS ", |payload| {
        let dup = payload[4..8].to_vec();
        payload[0..4].copy_from_slice(&dup);
    });
    assert!(matches!(
        BallTree::decode_snapshot(&bytes),
        Err(StoreError::Invalid(p2h_core::Error::Corrupt(_)))
    ));

    // Sibling centers out of adjacency (Ball-Tree layout contract): swap the root's
    // children center offsets.
    let mut bytes = small_ball_snapshot();
    patch_section(&mut bytes, b"NODE", |payload| {
        // Nodes are 24 bytes; node 1 and 2 are the root's children. Their center
        // offsets live at 24 and 48.
        let a = payload[24..28].to_vec();
        let b = payload[48..52].to_vec();
        payload[24..28].copy_from_slice(&b);
        payload[48..52].copy_from_slice(&a);
    });
    assert!(matches!(
        BallTree::decode_snapshot(&bytes),
        Err(StoreError::Invalid(p2h_core::Error::Corrupt(_)))
    ));
}

#[test]
fn bc_tree_corruption_is_equally_covered() {
    let tree = BcTreeBuilder::new(16).build(&dataset(300, 6)).unwrap();
    let full = tree.encode_snapshot();
    assert!(BcTree::decode_snapshot(&full).is_ok());
    for cut in [0, 5, 11, 40, full.len() / 2, full.len() - 1] {
        assert!(BcTree::decode_snapshot(&full[..cut]).is_err(), "prefix {cut}");
    }
    // Shrink the AUXD section: the count no longer matches META.
    let mut missing_aux = Vec::from(&full[..full.len() - 12]);
    // Fix up nothing — the AUXD section header now over-declares its length.
    assert!(BcTree::decode_snapshot(&missing_aux).is_err());
    missing_aux.extend_from_slice(&[0u8; 12]);
    // Right length, wrong bytes → checksum mismatch.
    assert!(matches!(
        BcTree::decode_snapshot(&missing_aux),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = small_ball_snapshot();
    bytes.extend_from_slice(b"extra");
    assert!(matches!(
        BallTree::decode_snapshot(&bytes),
        Err(StoreError::TrailingBytes { count: 5 })
    ));
}

#[test]
fn scalar_type_is_f32() {
    // The format stores 4-byte floats; if `Scalar` ever widens, the wire format (and
    // this guard) must be revisited.
    assert_eq!(std::mem::size_of::<Scalar>(), 4);
}
