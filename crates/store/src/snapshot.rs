//! The [`Snapshot`] trait: serialize a built index to the container format and restore
//! it with full validation.
//!
//! Snapshots store the index's constituent arrays **verbatim** — reordered points, id
//! mapping, node arena, centers, and (for BC-Tree) center norms and leaf structures —
//! so a loaded index answers every query bit-identically to the one that was saved,
//! on the same kernel backend. The arrays themselves are backend-independent: nothing
//! in a snapshot depends on whether it was written by an AVX2, NEON, or scalar build
//! (the `META` section records the writing backend purely as a provenance note).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

use p2h_balltree::{BallTree, BcTree, BcTreeParts, LeafPointAux, Node};
use p2h_core::{kernels, LinearScan, P2hIndex, PointSet, Scalar, VecBuf};

use crate::format::{
    io_error, IndexKind, LeRecord, Payload, Section, SnapshotReader, SnapshotSource,
    SnapshotWriter, StoreError, StoreResult,
};
use crate::mmap::{LoadMode, SourceOwner};
use crate::retry::retry_interrupted;

/// Section tags of format version 1.
pub(crate) mod tags {
    /// Dimensions, counts, build parameters, and the provenance note.
    pub const META: [u8; 4] = *b"META";
    /// Reordered row-major point payload (`count × dim` f32).
    pub const PNTS: [u8; 4] = *b"PNTS";
    /// Reordered-position → original-index mapping (`count` u32).
    pub const IDS: [u8; 4] = *b"IDS ";
    /// Node arena (24 bytes per node).
    pub const NODE: [u8; 4] = *b"NODE";
    /// Flat center buffer (`node_count × dim` f32).
    pub const CNTR: [u8; 4] = *b"CNTR";
    /// Cached center norms (`node_count` f32).
    pub const NORM: [u8; 4] = *b"NORM";
    /// Per-point ball/cone leaf structures (`count × 3` f32).
    pub const AUXD: [u8; 4] = *b"AUXD";
    /// Shard-group metadata (partitioner, shard count, totals).
    pub const GMET: [u8; 4] = *b"GMET";
    /// One shard's local-position → global-id mapping.
    pub const SIDS: [u8; 4] = *b"SIDS";
    /// Live-entry metadata (epoch, dim, next id, survivor count).
    pub const LMET: [u8; 4] = *b"LMET";
    /// Live-entry surviving global ids (base-local position → global id).
    pub const LIDS: [u8; 4] = *b"LIDS";
}

/// A built index that can be snapshotted to disk and restored without rebuilding.
pub trait Snapshot: P2hIndex + Sized {
    /// The index-kind tag this type writes into the snapshot header.
    const KIND: IndexKind;

    /// Streams the index as a self-contained snapshot (current container version) into
    /// `out`, from the index's own arrays ([`SnapshotWriter::write_to`]), so writing
    /// costs no payload-sized buffer.
    ///
    /// # Errors
    ///
    /// Whatever `out` returns.
    fn write_snapshot(&self, out: &mut dyn Write) -> io::Result<()>;

    /// The snapshot as one byte buffer: [`Snapshot::write_snapshot`] into a `Vec`, for
    /// tests and tooling that inspect or corrupt the bytes.
    fn encode_snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_snapshot(&mut bytes).expect("writing to a Vec cannot fail");
        bytes
    }

    /// Restores an index from a decode source: either plain bytes (copying) or a
    /// shared memory-mapped region, in which case every large array comes back as a
    /// zero-copy [`p2h_core::VecBuf`] window into the mapping. Answers are
    /// bit-identical either way; v1 containers silently demote a mapped source to the
    /// copying path (their payloads are unaligned).
    ///
    /// # Errors
    ///
    /// Every malformed input returns a typed [`StoreError`] — truncation, bad magic,
    /// wrong version, wrong kind, checksum mismatch, misalignment, size overflow, or
    /// arrays that fail the index's structural validation. No input can cause a panic
    /// or an unaligned cast.
    fn decode_snapshot_src(src: SnapshotSource<'_>) -> StoreResult<Self>;

    /// Restores an index from snapshot bytes (the copying path).
    ///
    /// # Errors
    ///
    /// See [`Snapshot::decode_snapshot_src`].
    fn decode_snapshot(bytes: &[u8]) -> StoreResult<Self> {
        Self::decode_snapshot_src(SnapshotSource::Bytes(bytes))
    }

    /// Writes the snapshot to `path` (via a `.tmp` sibling + rename, so a crashed
    /// writer never leaves a half-written file under the final name).
    fn save_snapshot(&self, path: &Path) -> StoreResult<()> {
        stage_file(path, false, |out| self.write_snapshot(out))
    }

    /// Reads and restores a snapshot from `path` by copying.
    fn load_snapshot(path: &Path) -> StoreResult<Self> {
        Self::load_snapshot_with(path, LoadMode::Copy)
    }

    /// Reads and restores a snapshot from `path` under an explicit [`LoadMode`]:
    /// [`LoadMode::Mmap`] maps the file and restores the arrays zero-copy.
    fn load_snapshot_with(path: &Path, mode: LoadMode) -> StoreResult<Self> {
        crate::metrics::timed_decode(|| {
            let owner = SourceOwner::read(path, mode)?;
            Self::decode_snapshot_src(owner.as_src())
        })
    }
}

/// Writes a file through a temporary sibling and an atomic rename: `write` streams the
/// contents into `<path>.tmp`, which then replaces `path`, so a crashed or failed
/// writer never leaves a half-written file under the final name.
///
/// `durable` adds the fsyncs that make the file survive power loss before anything
/// refers to it: of the `.tmp` before the rename, and of the directory after. A
/// `store.write` EINTR restarts the whole staged write from a truncated `.tmp`, so
/// `write` must be able to run more than once.
pub(crate) fn stage_file(
    path: &Path,
    durable: bool,
    mut write: impl FnMut(&mut dyn Write) -> io::Result<()>,
) -> StoreResult<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    retry_interrupted("store.write", || {
        let mut file = File::create(tmp)?;
        write(&mut file)?;
        if durable {
            file.sync_all()?;
        }
        Ok(())
    })
    .map_err(|e| io_error(tmp, e))?;
    retry_interrupted("store.write", || fs::rename(tmp, path)).map_err(|e| io_error(path, e))?;
    match path.parent() {
        Some(dir) if durable => crate::wal::fsync_dir(dir),
        _ => Ok(()),
    }
}

/// The `META` section contents shared by every index kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Augmented point dimensionality.
    pub dim: usize,
    /// Number of indexed points.
    pub count: usize,
    /// Number of tree nodes (0 for a linear scan).
    pub node_count: usize,
    /// Maximum leaf size `N0` (0 for a linear scan).
    pub leaf_size: usize,
    /// RNG seed the index was built with (0 for a linear scan).
    pub build_seed: u64,
    /// Free-text provenance note (e.g. the kernel backend the writer ran on). Purely
    /// informational: the stored arrays are kernel-backend independent.
    pub note: String,
}

impl SnapshotMeta {
    fn write(&self, payload: &mut Section<'_>) {
        payload.put_u64(self.dim as u64);
        payload.put_u64(self.count as u64);
        payload.put_u64(self.node_count as u64);
        payload.put_u64(self.leaf_size as u64);
        payload.put_u64(self.build_seed);
        let note = self.note.as_bytes();
        payload.put_u32(note.len() as u32);
        payload.put_bytes(note);
    }

    fn read(mut payload: Payload<'_>) -> StoreResult<Self> {
        let dim = payload.get_u64_usize("META dim")?;
        let count = payload.get_u64_usize("META count")?;
        let node_count = payload.get_u64_usize("META node count")?;
        let leaf_size = payload.get_u64_usize("META leaf size")?;
        let build_seed = payload.get_u64("META build seed")?;
        let note_len = payload.get_u32("META note length")? as usize;
        let note = String::from_utf8_lossy(payload.get_bytes(note_len, "META note")?).into_owned();
        payload.finish()?;
        Ok(Self { dim, count, node_count, leaf_size, build_seed, note })
    }
}

/// The provenance note recorded by this build's writers.
fn provenance_note() -> String {
    format!(
        "arrays are kernel-backend independent; written by the `{}` backend",
        kernels::active_backend().label()
    )
}

/// Reads the header + `META` section of a snapshot without loading the payloads.
///
/// Useful for tooling that lists a store's contents: the cost is one header parse and
/// one `META` checksum, independent of the index size.
pub fn snapshot_meta(bytes: &[u8]) -> StoreResult<(IndexKind, SnapshotMeta)> {
    let mut reader = SnapshotReader::new(bytes)?;
    let meta = SnapshotMeta::read(reader.section(tags::META)?)?;
    Ok((reader.kind, meta))
}

/// Checks `dim × count` against the platform *before* any array is read. The per-read
/// `len × 4` byte math is then checked again inside [`Payload`].
fn checked_scalars(dim: usize, count: usize) -> StoreResult<usize> {
    dim.checked_mul(count).ok_or(StoreError::Overflow { context: "dim × count" })
}

fn expect_kind(reader: &SnapshotReader<'_>, expected: IndexKind) -> StoreResult<()> {
    if reader.kind != expected {
        return Err(StoreError::KindMismatch { expected, found: reader.kind });
    }
    Ok(())
}

fn read_points(
    reader: &mut SnapshotReader<'_>,
    meta: &SnapshotMeta,
    src: SnapshotSource<'_>,
) -> StoreResult<PointSet> {
    let scalars = checked_scalars(meta.dim, meta.count)?;
    let mut payload = reader.section(tags::PNTS)?;
    let flat = payload.get_f32_buf(scalars, src, "PNTS payload")?;
    payload.finish()?;
    let points = PointSet::from_buf(meta.dim, flat)?;
    if points.len() != meta.count {
        return Err(StoreError::Invalid(p2h_core::Error::Corrupt(format!(
            "PNTS holds {} points, META declares {}",
            points.len(),
            meta.count
        ))));
    }
    Ok(points)
}

/// A node arena entry as `NODE` stores it: 24 bytes, fields in declaration order.
impl LeRecord for Node {
    const WIDTH: usize = 24;

    fn put_le(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.center_offset.to_le_bytes());
        out[4..8].copy_from_slice(&self.radius.to_le_bytes());
        out[8..12].copy_from_slice(&self.start.to_le_bytes());
        out[12..16].copy_from_slice(&self.end.to_le_bytes());
        out[16..20].copy_from_slice(&self.left.to_le_bytes());
        out[20..24].copy_from_slice(&self.right.to_le_bytes());
    }
}

/// A point's leaf structures as `AUXD` stores them: radius, `x_cos`, `x_sin`.
impl LeRecord for LeafPointAux {
    const WIDTH: usize = 12;

    fn put_le(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.radius.to_le_bytes());
        out[4..8].copy_from_slice(&self.x_cos.to_le_bytes());
        out[8..12].copy_from_slice(&self.x_sin.to_le_bytes());
    }
}

/// Starts a tree snapshot with the sections both tree kinds store: `META`, `PNTS`,
/// `IDS`, `NODE` and `CNTR`, every array borrowed from the tree.
fn tree_writer<'a>(
    kind: IndexKind,
    points: &'a PointSet,
    ids: &'a [u32],
    nodes: &'a [Node],
    centers: &'a [Scalar],
    leaf_size: usize,
    build_seed: u64,
) -> SnapshotWriter<'a> {
    let meta = SnapshotMeta {
        dim: points.dim(),
        count: points.len(),
        node_count: nodes.len(),
        leaf_size,
        build_seed,
        note: provenance_note(),
    };
    let mut writer = SnapshotWriter::new(kind);
    meta.write(writer.section(tags::META));
    writer.section(tags::PNTS).records(points.as_flat());
    writer.section(tags::IDS).records(ids);
    writer.section(tags::NODE).records(nodes);
    writer.section(tags::CNTR).records(centers);
    writer
}

/// The sections both tree kinds store, as [`read_tree_sections`] returns them.
struct TreeSections {
    meta: SnapshotMeta,
    points: PointSet,
    ids: VecBuf<u32>,
    nodes: Vec<Node>,
    centers: VecBuf<Scalar>,
}

/// Reads the sections [`tree_writer`] writes, leaving `reader` at the kind's own
/// sections. Lengths are checked here; the arrays' structure is checked by the trees'
/// `from_parts`.
fn read_tree_sections(
    reader: &mut SnapshotReader<'_>,
    src: SnapshotSource<'_>,
) -> StoreResult<TreeSections> {
    let meta = SnapshotMeta::read(reader.section(tags::META)?)?;
    let points = read_points(reader, &meta, src)?;

    let mut payload = reader.section(tags::IDS)?;
    let ids = payload.get_u32_buf(meta.count, src, "IDS payload")?;
    payload.finish()?;

    let mut payload = reader.section(tags::NODE)?;
    let mut nodes = Vec::with_capacity(meta.node_count.min(payload.len() / 24));
    for _ in 0..meta.node_count {
        nodes.push(Node {
            center_offset: payload.get_u32("NODE center offset")?,
            radius: payload.get_f32("NODE radius")?,
            start: payload.get_u32("NODE start")?,
            end: payload.get_u32("NODE end")?,
            left: payload.get_u32("NODE left")?,
            right: payload.get_u32("NODE right")?,
        });
    }
    payload.finish()?;

    let scalars = checked_scalars(meta.dim, meta.node_count)?;
    let mut payload = reader.section(tags::CNTR)?;
    let centers = payload.get_f32_buf(scalars, src, "CNTR payload")?;
    payload.finish()?;
    Ok(TreeSections { meta, points, ids, nodes, centers })
}

impl Snapshot for LinearScan {
    const KIND: IndexKind = IndexKind::LinearScan;

    fn write_snapshot(&self, out: &mut dyn Write) -> io::Result<()> {
        let points = self.points();
        let meta = SnapshotMeta {
            dim: points.dim(),
            count: points.len(),
            node_count: 0,
            leaf_size: 0,
            build_seed: 0,
            note: provenance_note(),
        };
        let mut writer = SnapshotWriter::new(Self::KIND);
        meta.write(writer.section(tags::META));
        writer.section(tags::PNTS).records(points.as_flat());
        writer.write_to(out)
    }

    fn decode_snapshot_src(src: SnapshotSource<'_>) -> StoreResult<Self> {
        let mut reader = SnapshotReader::new(src.bytes())?;
        let src = src.for_version(reader.version);
        expect_kind(&reader, Self::KIND)?;
        let meta = SnapshotMeta::read(reader.section(tags::META)?)?;
        let points = read_points(&mut reader, &meta, src)?;
        reader.finish()?;
        Ok(LinearScan::new(points))
    }
}

impl Snapshot for BallTree {
    const KIND: IndexKind = IndexKind::BallTree;

    fn write_snapshot(&self, out: &mut dyn Write) -> io::Result<()> {
        tree_writer(
            Self::KIND,
            self.points(),
            self.original_ids(),
            self.nodes(),
            self.centers(),
            self.leaf_size(),
            self.build_seed(),
        )
        .write_to(out)
    }

    fn decode_snapshot_src(src: SnapshotSource<'_>) -> StoreResult<Self> {
        let mut reader = SnapshotReader::new(src.bytes())?;
        let src = src.for_version(reader.version);
        expect_kind(&reader, Self::KIND)?;
        let TreeSections { meta, points, ids, nodes, centers } =
            read_tree_sections(&mut reader, src)?;
        reader.finish()?;
        // `from_parts` runs the full structural validation (ranges, partition,
        // permutation, adjacent sibling centers) and never panics on bad arrays.
        Ok(BallTree::from_parts(points, ids, nodes, centers, meta.leaf_size, meta.build_seed)?)
    }
}

impl Snapshot for BcTree {
    const KIND: IndexKind = IndexKind::BcTree;

    fn write_snapshot(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut writer = tree_writer(
            Self::KIND,
            self.points(),
            self.original_ids(),
            self.nodes(),
            self.centers(),
            self.leaf_size(),
            self.build_seed(),
        );
        writer.section(tags::NORM).records(self.center_norms());
        writer.section(tags::AUXD).records(self.leaf_aux());
        writer.write_to(out)
    }

    fn decode_snapshot_src(src: SnapshotSource<'_>) -> StoreResult<Self> {
        let mut reader = SnapshotReader::new(src.bytes())?;
        let src = src.for_version(reader.version);
        expect_kind(&reader, Self::KIND)?;
        let TreeSections { meta, points, ids, nodes, centers } =
            read_tree_sections(&mut reader, src)?;
        let mut payload = reader.section(tags::NORM)?;
        let center_norms = payload.get_f32_buf(meta.node_count, src, "NORM payload")?;
        payload.finish()?;
        let mut payload = reader.section(tags::AUXD)?;
        let mut aux = Vec::with_capacity(meta.count.min(payload.len() / 12));
        for _ in 0..meta.count {
            aux.push(LeafPointAux {
                radius: payload.get_f32("AUXD radius")?,
                x_cos: payload.get_f32("AUXD x_cos")?,
                x_sin: payload.get_f32("AUXD x_sin")?,
            });
        }
        payload.finish()?;
        reader.finish()?;
        Ok(BcTree::from_parts(BcTreeParts {
            points,
            original_ids: ids,
            nodes,
            centers,
            center_norms,
            aux,
            leaf_size: meta.leaf_size,
            build_seed: meta.build_seed,
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TestDir;
    use crate::Store;

    /// A write that fails after part of the `.tmp` reached the disk: the save is a typed
    /// I/O error, the previous file under `path` is untouched, and the leftover `.tmp`
    /// is the sweep's to reclaim.
    #[test]
    fn a_save_failing_mid_stream_keeps_the_previous_file_and_leaves_a_sweepable_tmp() {
        let dir = TestDir::new("stage-mid-stream");
        let store = Store::create(&*dir).unwrap().with_sweep_grace(std::time::Duration::ZERO);
        let path = dir.join("entry.p2hs");
        stage_file(&path, false, |out| out.write_all(b"the previous save")).unwrap();

        let err = stage_file(&path, false, |out| {
            out.write_all(b"half of the next")?;
            Err(io::Error::other("device full"))
        })
        .unwrap_err();
        assert!(
            matches!(&err, StoreError::Io { message, .. } if message.contains("device full")),
            "expected a typed Io error, got {err:?}"
        );
        assert_eq!(fs::read(&path).unwrap(), b"the previous save");
        let tmp = dir.join("entry.p2hs.tmp");
        assert_eq!(fs::read(&tmp).unwrap(), b"half of the next");

        assert_eq!(store.sweep_now().unwrap(), 1);
        assert!(!tmp.exists());
        assert_eq!(fs::read(&path).unwrap(), b"the previous save");
    }
}
