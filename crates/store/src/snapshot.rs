//! The [`Snapshot`] trait: serialize a built index to the container format and restore
//! it with full validation.
//!
//! Snapshots store the index's constituent arrays **verbatim** — reordered points, id
//! mapping, node arena, centers, and (for BC-Tree) center norms and leaf structures —
//! so a loaded index answers every query bit-identically to the one that was saved,
//! on the same kernel backend. The arrays themselves are backend-independent: nothing
//! in a snapshot depends on whether it was written by an AVX2, NEON, or scalar build
//! (the `META` section records the writing backend purely as a provenance note).

use std::fs;
use std::path::Path;

use p2h_balltree::{BallTree, BcTree, BcTreeParts, LeafPointAux, Node};
use p2h_core::{kernels, LinearScan, P2hIndex, PointSet, Scalar, VecBuf};
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams, ProjectionTables, QuadraticTransform};

use crate::format::{
    wire, IndexKind, Payload, SnapshotReader, SnapshotSource, SnapshotWriter, StoreError,
    StoreResult,
};
use crate::mmap::{LoadMode, SourceOwner};

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
    /// NH build parameters + norm-alignment constant.
    pub const NHPR: [u8; 4] = *b"NHPR";
    /// FH build parameters.
    pub const FHPR: [u8; 4] = *b"FHPR";
    /// Sampled quadratic transform (coordinate pairs + scale).
    pub const TPRS: [u8; 4] = *b"TPRS";
    /// Sorted random-projection tables (directions + per-table sorted arrays).
    pub const PROJ: [u8; 4] = *b"PROJ";
    /// One FH norm-based partition (global ids + its projection tables).
    pub const PRTN: [u8; 4] = *b"PRTN";
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

    /// Serializes the index into a self-contained snapshot byte buffer (current
    /// container version).
    fn encode_snapshot(&self) -> Vec<u8>;

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
        write_file_atomically(path, &self.encode_snapshot())
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

/// Writes `bytes` to `path` through a temporary sibling and an atomic rename.
pub(crate) fn write_file_atomically(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    crate::retry::retry_interrupted("store.write", || fs::write(tmp, bytes))
        .map_err(|e| crate::format::io_error(tmp, e))?;
    crate::retry::retry_interrupted("store.write", || fs::rename(tmp, path))
        .map_err(|e| crate::format::io_error(path, e))
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
    fn write(&self, payload: &mut Vec<u8>) {
        wire::put_u64(payload, self.dim as u64);
        wire::put_u64(payload, self.count as u64);
        wire::put_u64(payload, self.node_count as u64);
        wire::put_u64(payload, self.leaf_size as u64);
        wire::put_u64(payload, self.build_seed);
        let note = self.note.as_bytes();
        wire::put_u32(payload, note.len() as u32);
        payload.extend_from_slice(note);
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

/// Starts a tree snapshot with the sections both tree kinds store: `META`, `PNTS`,
/// `IDS`, `NODE` and `CNTR`.
fn tree_writer(
    kind: IndexKind,
    points: &PointSet,
    ids: &[u32],
    nodes: &[Node],
    centers: &[Scalar],
    leaf_size: usize,
    build_seed: u64,
) -> SnapshotWriter {
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
    wire::put_f32_slice(writer.section(tags::PNTS), points.as_flat());
    wire::put_u32_slice(writer.section(tags::IDS), ids);
    let payload = writer.section(tags::NODE);
    payload.reserve(nodes.len() * 24);
    for node in nodes {
        wire::put_u32(payload, node.center_offset);
        wire::put_f32(payload, node.radius);
        wire::put_u32(payload, node.start);
        wire::put_u32(payload, node.end);
        wire::put_u32(payload, node.left);
        wire::put_u32(payload, node.right);
    }
    wire::put_f32_slice(writer.section(tags::CNTR), centers);
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

    fn encode_snapshot(&self) -> Vec<u8> {
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
        wire::put_f32_slice(writer.section(tags::PNTS), points.as_flat());
        writer.finish()
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

    fn encode_snapshot(&self) -> Vec<u8> {
        tree_writer(
            Self::KIND,
            self.points(),
            self.original_ids(),
            self.nodes(),
            self.centers(),
            self.leaf_size(),
            self.build_seed(),
        )
        .finish()
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

    fn encode_snapshot(&self) -> Vec<u8> {
        let mut writer = tree_writer(
            Self::KIND,
            self.points(),
            self.original_ids(),
            self.nodes(),
            self.centers(),
            self.leaf_size(),
            self.build_seed(),
        );
        wire::put_f32_slice(writer.section(tags::NORM), self.center_norms());
        let aux_payload = writer.section(tags::AUXD);
        aux_payload.reserve(self.leaf_aux().len() * 12);
        for aux in self.leaf_aux() {
            wire::put_f32(aux_payload, aux.radius);
            wire::put_f32(aux_payload, aux.x_cos);
            wire::put_f32(aux_payload, aux.x_sin);
        }
        writer.finish()
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

// ---------------------------------------------------------------------------
// NH / FH hashing baselines
// ---------------------------------------------------------------------------

/// Serializes a sampled quadratic transform into a `TPRS` payload.
fn write_transform(payload: &mut Vec<u8>, transform: &QuadraticTransform) {
    wire::put_u64(payload, transform.input_dim() as u64);
    wire::put_f32(payload, transform.scale());
    wire::put_u64(payload, transform.pairs().len() as u64);
    payload.reserve(transform.pairs().len() * 8);
    for &(i, j) in transform.pairs() {
        wire::put_u32(payload, i);
        wire::put_u32(payload, j);
    }
}

/// Restores a transform from a `TPRS` payload (full structural validation via
/// [`QuadraticTransform::from_parts`]).
fn read_transform(mut payload: Payload<'_>) -> StoreResult<QuadraticTransform> {
    let input_dim = payload.get_u64_usize("TPRS input dim")?;
    let scale = payload.get_f32("TPRS scale")?;
    let pair_count = payload.get_u64_usize("TPRS pair count")?;
    // Bound the reserve by the remaining payload before trusting the declared count.
    let mut pairs = Vec::with_capacity(pair_count.min(payload.len() / 8));
    for _ in 0..pair_count {
        pairs.push((payload.get_u32("TPRS pair i")?, payload.get_u32("TPRS pair j")?));
    }
    payload.finish()?;
    Ok(QuadraticTransform::from_parts(input_dim, pairs, scale)?)
}

/// Serializes projection tables into a payload: `dim`, `m`, `n`, the direction matrix,
/// then the sorted values (`m × n` f32, table-major) and the matching ids (`m × n`
/// u32). The struct-of-arrays layout (v2) is what lets the zero-copy loader serve the
/// value and id arrays as typed windows; v1 interleaved the `(value, id)` pairs.
fn write_projection_tables(payload: &mut Vec<u8>, tables: &ProjectionTables) {
    wire::put_u64(payload, tables.dim() as u64);
    wire::put_u64(payload, tables.table_count() as u64);
    wire::put_u64(payload, tables.len() as u64);
    wire::put_f32_slice(payload, tables.directions());
    wire::put_f32_slice(payload, tables.values());
    wire::put_u32_slice(payload, tables.ids());
}

/// Restores projection tables from a payload (sortedness and per-table permutations are
/// validated by [`ProjectionTables::from_parts`]). `version` selects the layout: v2 is
/// struct-of-arrays (zero-copy capable), v1 interleaved pairs (always copied).
fn read_projection_tables(
    payload: &mut Payload<'_>,
    src: SnapshotSource<'_>,
    version: u16,
) -> StoreResult<ProjectionTables> {
    let dim = payload.get_u64_usize("PROJ dim")?;
    let m = payload.get_u64_usize("PROJ table count")?;
    let n = payload.get_u64_usize("PROJ length")?;
    let direction_scalars =
        dim.checked_mul(m).ok_or(StoreError::Overflow { context: "PROJ m × dim" })?;
    let table_entries = m.checked_mul(n).ok_or(StoreError::Overflow { context: "PROJ m × n" })?;
    if version >= 2 {
        let directions = payload.get_f32_buf(direction_scalars, src, "PROJ directions")?;
        let values = payload.get_f32_buf(table_entries, src, "PROJ values")?;
        let ids = payload.get_u32_buf(table_entries, src, "PROJ ids")?;
        return Ok(ProjectionTables::from_parts(dim, directions, n, values, ids)?);
    }
    let directions = payload.get_f32_vec(direction_scalars, "PROJ directions")?;
    let mut values = Vec::with_capacity(table_entries.min(payload.len() / 8));
    let mut ids = Vec::with_capacity(table_entries.min(payload.len() / 8));
    for _ in 0..table_entries {
        values.push(payload.get_f32("PROJ value")?);
        ids.push(payload.get_u32("PROJ id")?);
    }
    Ok(ProjectionTables::from_parts(dim, directions, n, values, ids)?)
}

impl Snapshot for NhIndex {
    const KIND: IndexKind = IndexKind::Nh;

    fn encode_snapshot(&self) -> Vec<u8> {
        let points = self.points();
        let meta = SnapshotMeta {
            dim: points.dim(),
            count: points.len(),
            node_count: 0,
            leaf_size: 0,
            build_seed: self.params().seed,
            note: provenance_note(),
        };
        let mut writer = SnapshotWriter::new(Self::KIND);
        meta.write(writer.section(tags::META));
        let params = writer.section(tags::NHPR);
        wire::put_u64(params, self.params().lambda_factor as u64);
        wire::put_u64(params, self.params().tables as u64);
        wire::put_u64(params, self.params().collision_threshold as u64);
        wire::put_u64(params, self.params().seed);
        wire::put_f32(params, self.alignment_constant());
        wire::put_f32_slice(writer.section(tags::PNTS), points.as_flat());
        write_transform(writer.section(tags::TPRS), self.transform());
        write_projection_tables(writer.section(tags::PROJ), self.tables());
        writer.finish()
    }

    fn decode_snapshot_src(src: SnapshotSource<'_>) -> StoreResult<Self> {
        let mut reader = SnapshotReader::new(src.bytes())?;
        let src = src.for_version(reader.version);
        expect_kind(&reader, Self::KIND)?;
        let meta = SnapshotMeta::read(reader.section(tags::META)?)?;
        let mut payload = reader.section(tags::NHPR)?;
        let params = NhParams {
            lambda_factor: payload.get_u64_usize("NHPR lambda factor")?,
            tables: payload.get_u64_usize("NHPR tables")?,
            collision_threshold: payload.get_u64_usize("NHPR collision threshold")?,
            seed: payload.get_u64("NHPR seed")?,
        };
        let alignment_m = payload.get_f32("NHPR alignment constant")?;
        payload.finish()?;
        let points = read_points(&mut reader, &meta, src)?;
        let transform = read_transform(reader.section(tags::TPRS)?)?;
        let mut payload = reader.section(tags::PROJ)?;
        let tables = read_projection_tables(&mut payload, src, reader.version)?;
        payload.finish()?;
        reader.finish()?;
        // `from_parts` cross-validates the arrays (dims, counts, λ + 1 coordinate).
        Ok(NhIndex::from_parts(points, transform, tables, params, alignment_m)?)
    }
}

impl Snapshot for FhIndex {
    const KIND: IndexKind = IndexKind::Fh;

    fn encode_snapshot(&self) -> Vec<u8> {
        let points = self.points();
        let meta = SnapshotMeta {
            dim: points.dim(),
            count: points.len(),
            node_count: 0,
            leaf_size: 0,
            build_seed: self.params().seed,
            note: provenance_note(),
        };
        let mut writer = SnapshotWriter::new(Self::KIND);
        meta.write(writer.section(tags::META));
        let params = writer.section(tags::FHPR);
        wire::put_u64(params, self.params().lambda_factor as u64);
        wire::put_u64(params, self.params().tables as u64);
        wire::put_u64(params, self.params().partitions as u64);
        wire::put_u64(params, self.params().collision_threshold as u64);
        wire::put_u64(params, self.params().seed);
        wire::put_u64(params, self.partition_count() as u64);
        wire::put_f32_slice(writer.section(tags::PNTS), points.as_flat());
        write_transform(writer.section(tags::TPRS), self.transform());
        for p in 0..self.partition_count() {
            let payload = writer.section(tags::PRTN);
            let ids = self.partition_ids(p);
            wire::put_u64(payload, ids.len() as u64);
            wire::put_u32_slice(payload, ids);
            write_projection_tables(payload, self.partition_tables(p));
        }
        writer.finish()
    }

    fn decode_snapshot_src(src: SnapshotSource<'_>) -> StoreResult<Self> {
        let mut reader = SnapshotReader::new(src.bytes())?;
        let src = src.for_version(reader.version);
        expect_kind(&reader, Self::KIND)?;
        let meta = SnapshotMeta::read(reader.section(tags::META)?)?;
        let mut payload = reader.section(tags::FHPR)?;
        let params = FhParams {
            lambda_factor: payload.get_u64_usize("FHPR lambda factor")?,
            tables: payload.get_u64_usize("FHPR tables")?,
            partitions: payload.get_u64_usize("FHPR partitions")?,
            collision_threshold: payload.get_u64_usize("FHPR collision threshold")?,
            seed: payload.get_u64("FHPR seed")?,
        };
        let partition_count = payload.get_u64_usize("FHPR partition count")?;
        payload.finish()?;
        let points = read_points(&mut reader, &meta, src)?;
        let transform = read_transform(reader.section(tags::TPRS)?)?;
        let mut partitions = Vec::with_capacity(partition_count.min(meta.count));
        for _ in 0..partition_count {
            let mut payload = reader.section(tags::PRTN)?;
            let id_count = payload.get_u64_usize("PRTN id count")?;
            let ids = payload.get_u32_buf(id_count, src, "PRTN ids")?;
            let tables = read_projection_tables(&mut payload, src, reader.version)?;
            payload.finish()?;
            partitions.push((ids, tables));
        }
        reader.finish()?;
        // `from_parts` validates the disjoint cover and every dimension relation.
        Ok(FhIndex::from_parts(points, transform, partitions, params)?)
    }
}
