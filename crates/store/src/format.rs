//! The versioned snapshot container format: header, checksummed sections, and the
//! typed errors every malformed input maps to.
//!
//! A snapshot is a single file (see `docs/SNAPSHOT_FORMAT.md` for the byte-level spec).
//! The current container is **format version 2**:
//!
//! ```text
//! header   magic "P2HS" · format version u16 · index-kind tag u8 · reserved u8
//!          · section count u32 · reserved u32 (zero)             (16 bytes)
//! section  tag [4 ASCII bytes] · payload length u64 · CRC32 u32  (16 bytes)
//!          · payload · zero padding to the next 8-byte boundary
//! …        (sections repeat; nothing may follow the last one)
//! ```
//!
//! Because the v2 header is 16 bytes, section headers are 16 bytes, and every payload
//! is padded to a multiple of 8, **every section payload starts on an 8-byte boundary
//! of the file**. That is the property the zero-copy loader relies on: a memory-mapped
//! snapshot can serve its `f32`/`u32` arrays as typed slices directly (mmap bases are
//! page-aligned, so file alignment is absolute alignment). Format version 1 (12-byte
//! header, no padding) is still read — via the copying path only.
//!
//! All integers are little-endian. Every section payload is covered by its CRC32, so a
//! flipped bit anywhere in the tree arrays is caught at load time instead of silently
//! corrupting search results. The reader is hardened against hostile input: truncation,
//! bad magic, unknown versions or kinds, checksum mismatches, misaligned/nonzero
//! padding, and `dim × count` size overflows all return a typed [`StoreError`] — never
//! a panic, never an unbounded allocation (payload reads are bounded by the actual file
//! size before any `Vec` is reserved), and never an unaligned typed cast.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use p2h_core::{kernels, BufBacking, Scalar, VecBuf};

use crate::crc32::crc32;
use crate::mmap::MmapRegion;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"P2HS";

/// The current container format version (aligned sections, zero-copy loadable).
pub const FORMAT_VERSION: u16 = 2;

/// The legacy container version (unaligned; still readable via the copying path).
pub const FORMAT_VERSION_V1: u16 = 1;

/// Byte length of the current (v2) file header.
pub const HEADER_LEN: usize = 16;

/// Byte length of the legacy (v1) file header.
pub const HEADER_LEN_V1: usize = 12;

/// Byte length of a section header (both versions).
pub const SECTION_HEADER_LEN: usize = 16;

/// Alignment every v2 section payload is padded to.
pub const SECTION_ALIGN: usize = 8;

/// Which index type a snapshot holds, stored as a one-byte tag in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// [`p2h_core::LinearScan`] — raw points only.
    LinearScan,
    /// [`p2h_balltree::BallTree`].
    BallTree,
    /// [`p2h_balltree::BcTree`].
    BcTree,
    /// A shard-group map file: the id mappings and metadata tying the per-shard
    /// snapshots of one sharded index together. Not a standalone index — it is loaded
    /// through the shard-group path, never through `load`/`load_any`.
    ShardMap,
    /// A live-entry id file: the surviving global ids and epoch metadata of one
    /// `p2h-live` mutable index's base snapshot. Not a standalone index — it is loaded
    /// through the live-entry path, never through `load`/`load_any`.
    LiveIds,
}

impl IndexKind {
    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::LinearScan => 0,
            IndexKind::BallTree => 1,
            IndexKind::BcTree => 2,
            IndexKind::ShardMap => 5,
            IndexKind::LiveIds => 6,
        }
    }

    /// Decodes a tag byte. Tags 3 and 4 held the NH and FH hashing baselines, which
    /// are no longer persisted: they decode to `None`, and no new kind may take them.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(IndexKind::LinearScan),
            1 => Some(IndexKind::BallTree),
            2 => Some(IndexKind::BcTree),
            5 => Some(IndexKind::ShardMap),
            6 => Some(IndexKind::LiveIds),
            _ => None,
        }
    }

    /// Human-readable label (matches the index's `P2hIndex::name` flavor).
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::LinearScan => "linear-scan",
            IndexKind::BallTree => "ball-tree",
            IndexKind::BcTree => "bc-tree",
            IndexKind::ShardMap => "shard-map",
            IndexKind::LiveIds => "live-ids",
        }
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything that can go wrong while writing, reading, or resolving snapshots.
///
/// Each malformed-input case gets its own variant so callers (and tests) can assert the
/// precise failure mode; [`StoreError::Io`] is reserved for operating-system failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// An operating-system I/O failure (missing file, permissions, disk full, …).
    Io {
        /// The path involved, when known.
        path: Option<PathBuf>,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the snapshot magic bytes.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file declares a container version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The header's index-kind tag is not a known kind.
    UnknownKind(u8),
    /// The snapshot holds a different index kind than the caller asked for.
    KindMismatch {
        /// Kind the caller expected.
        expected: IndexKind,
        /// Kind found in the header.
        found: IndexKind,
    },
    /// The input ended before a declared structure was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A section appeared with a different tag than the format mandates next.
    SectionTagMismatch {
        /// Tag the format expects at this position.
        expected: [u8; 4],
        /// Tag actually found.
        found: [u8; 4],
    },
    /// A section payload failed its CRC32 check.
    ChecksumMismatch {
        /// Tag of the failing section.
        section: [u8; 4],
        /// Checksum stored in the section header.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A declared size (`dim × count`, payload bytes, …) overflows the platform.
    Overflow {
        /// The computation that overflowed.
        context: &'static str,
    },
    /// A section's payload length disagrees with the lengths declared in `META`.
    SectionLength {
        /// Tag of the offending section.
        section: [u8; 4],
        /// Byte length the metadata implies.
        expected: u64,
        /// Byte length found in the section header.
        found: u64,
    },
    /// Bytes remained after the declared sections were consumed.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// A v2 section violates the 8-byte alignment rules: nonzero padding bytes, or an
    /// array that would require an unaligned typed view. The loader refuses rather
    /// than perform an unaligned cast.
    Misaligned {
        /// Tag of the offending section.
        section: [u8; 4],
        /// Absolute byte offset of the violation.
        offset: usize,
    },
    /// The decoded arrays failed the index's structural validation (the trees'
    /// `from_parts`), or a `PointSet` could not be formed.
    Invalid(p2h_core::Error),
    /// The store `MANIFEST` file is malformed.
    Manifest {
        /// 1-based line number of the offending line (0 for file-level problems).
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// An index name is not registered in the store manifest.
    MissingEntry(String),
    /// An index name is not usable as a snapshot file stem.
    InvalidName(String),
    /// The snapshot holds a non-index kind (a shard map) where a standalone index was
    /// expected; shard groups load through `Store::load_shard_group`.
    NotAnIndex(IndexKind),
    /// The manifest entry is a shard group, not a single snapshot (or vice versa).
    EntryKind {
        /// Name of the entry.
        name: String,
        /// What the entry actually is.
        is_group: bool,
    },
    /// The shard-group files are mutually inconsistent (counts, dimensions, or the
    /// global id mapping disagree across the map file and the per-shard snapshots).
    GroupInconsistent {
        /// What disagrees.
        message: String,
    },
    /// A write-ahead-log segment is corrupt beyond the torn-tail rule: a frame in the
    /// middle of the segment fails its CRC, declares an impossible length, or replays
    /// an operation no valid writer history could have appended.
    WalCorrupt {
        /// What is wrong with the segment.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path: Some(path), message } => {
                write!(f, "I/O error on {}: {message}", path.display())
            }
            StoreError::Io { path: None, message } => write!(f, "I/O error: {message}"),
            StoreError::BadMagic { found } => {
                write!(f, "bad magic {found:?}: not a P2HS snapshot")
            }
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported snapshot version {found} (this build reads {supported})")
            }
            StoreError::UnknownKind(tag) => write!(f, "unknown index-kind tag {tag}"),
            StoreError::KindMismatch { expected, found } => {
                write!(f, "snapshot holds a {found} index, expected {expected}")
            }
            StoreError::Truncated { context } => write!(f, "truncated snapshot: {context}"),
            StoreError::SectionTagMismatch { expected, found } => write!(
                f,
                "expected section `{}`, found `{}`",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            StoreError::ChecksumMismatch { section, stored, computed } => write!(
                f,
                "checksum mismatch in section `{}`: stored {stored:#010x}, computed {computed:#010x}",
                String::from_utf8_lossy(section)
            ),
            StoreError::Overflow { context } => write!(f, "size overflow: {context}"),
            StoreError::SectionLength { section, expected, found } => write!(
                f,
                "section `{}` holds {found} bytes, metadata implies {expected}",
                String::from_utf8_lossy(section)
            ),
            StoreError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the last section")
            }
            StoreError::Misaligned { section, offset } => write!(
                f,
                "section `{}` violates the 8-byte alignment rules at offset {offset}",
                String::from_utf8_lossy(section)
            ),
            StoreError::Invalid(err) => write!(f, "invalid index data: {err}"),
            StoreError::Manifest { line, message } => {
                write!(f, "malformed MANIFEST (line {line}): {message}")
            }
            StoreError::MissingEntry(name) => {
                write!(f, "no index named `{name}` in the store manifest")
            }
            StoreError::InvalidName(name) => write!(
                f,
                "invalid index name `{name}`: use 1-100 chars of [A-Za-z0-9._-], not starting with `.`"
            ),
            StoreError::NotAnIndex(kind) => {
                write!(f, "snapshot holds a `{kind}` payload, which is not a standalone index")
            }
            StoreError::EntryKind { name, is_group } => {
                if *is_group {
                    write!(f, "`{name}` is a shard group; load it through the shard-group API")
                } else {
                    write!(f, "`{name}` is a single snapshot, not a shard group")
                }
            }
            StoreError::GroupInconsistent { message } => {
                write!(f, "inconsistent shard group: {message}")
            }
            StoreError::WalCorrupt { message } => {
                write!(f, "corrupt WAL segment: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<p2h_core::Error> for StoreError {
    fn from(err: p2h_core::Error) -> Self {
        StoreError::Invalid(err)
    }
}

/// Convenience result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Wraps an OS error with the path it occurred on.
pub(crate) fn io_error(path: &Path, err: std::io::Error) -> StoreError {
    StoreError::Io { path: Some(path.to_path_buf()), message: err.to_string() }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Bytes [`SnapshotWriter::write_to`] encodes at a time: its one buffer, and so the
/// whole of a save's memory beyond the index itself.
pub const WRITE_CHUNK: usize = 64 * 1024;

/// A value with a fixed-width little-endian encoding, which a section can stream from a
/// borrowed slice (see [`Section::records`]).
pub trait LeRecord: Sized {
    /// Encoded bytes per value.
    const WIDTH: usize;

    /// Writes the value's little-endian bytes into `out` (exactly [`Self::WIDTH`] bytes).
    fn put_le(&self, out: &mut [u8]);

    /// `values` as they sit in memory, when those bytes already are their encoding
    /// (`f32` and `u32` on a little-endian target): the writer then checksums and writes
    /// them as they are, in one call, instead of encoding them a chunk at a time.
    fn in_memory_le(_values: &[Self]) -> Option<&[u8]> {
        None
    }
}

impl LeRecord for Scalar {
    const WIDTH: usize = 4;

    fn put_le(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn in_memory_le(values: &[Self]) -> Option<&[u8]> {
        crate::mmap::le_bytes(values)
    }
}

impl LeRecord for u32 {
    const WIDTH: usize = 4;

    fn put_le(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn in_memory_le(values: &[Self]) -> Option<&[u8]> {
        crate::mmap::le_bytes(values)
    }
}

/// A borrowed slice of [`LeRecord`]s with its type erased.
trait Records {
    fn count(&self) -> usize;
    fn width(&self) -> usize;
    /// [`LeRecord::in_memory_le`] of the whole slice.
    fn in_memory_le(&self) -> Option<&[u8]>;
    /// Appends the encoding of the records `range` to `out`.
    fn encode(&self, range: std::ops::Range<usize>, out: &mut Vec<u8>);
}

impl<T: LeRecord> Records for &[T] {
    fn count(&self) -> usize {
        self.len()
    }

    fn width(&self) -> usize {
        T::WIDTH
    }

    fn in_memory_le(&self) -> Option<&[u8]> {
        // A view of any other length would disagree with the section's declared length.
        T::in_memory_le(self).filter(|bytes| bytes.len() == self.len() * T::WIDTH)
    }

    fn encode(&self, range: std::ops::Range<usize>, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + range.len() * T::WIDTH, 0);
        for (dst, record) in out[start..].chunks_exact_mut(T::WIDTH).zip(&self[range]) {
            record.put_le(dst);
        }
    }
}

/// One run of a section payload: bytes the section owns, or records borrowed from the
/// index and encoded only as they are written.
enum Part<'a> {
    Owned(Vec<u8>),
    Borrowed(Box<dyn Records + 'a>),
}

impl Part<'_> {
    fn byte_len(&self) -> usize {
        match self {
            Part::Owned(bytes) => bytes.len(),
            Part::Borrowed(records) => records.count() * records.width(),
        }
    }
}

/// A section's payload under construction: small values are appended as owned bytes,
/// large arrays are borrowed ([`Section::records`]) and never copied whole.
pub struct Section<'a> {
    tag: [u8; 4],
    parts: Vec<Part<'a>>,
}

impl<'a> Section<'a> {
    /// The owned run at the end of the payload, opened if the last run is borrowed.
    fn owned(&mut self) -> &mut Vec<u8> {
        if !matches!(self.parts.last(), Some(Part::Owned(_))) {
            self.parts.push(Part::Owned(Vec::new()));
        }
        match self.parts.last_mut() {
            Some(Part::Owned(bytes)) => bytes,
            _ => unreachable!("an owned run was just ensured"),
        }
    }

    /// Appends raw bytes (copied).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.owned().extend_from_slice(bytes);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a whole array by reference: it is read only while the snapshot is
    /// written (straight from memory, or encoded a chunk at a time), so no payload-sized
    /// buffer is ever allocated.
    pub fn records<T: LeRecord>(&mut self, values: &'a [T]) {
        self.parts.push(Part::Borrowed(Box::new(values)));
    }

    fn byte_len(&self) -> usize {
        self.parts.iter().map(Part::byte_len).sum()
    }
}

impl fmt::Debug for Section<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Section")
            .field("tag", &String::from_utf8_lossy(&self.tag))
            .field("bytes", &self.byte_len())
            .finish()
    }
}

/// Describes a snapshot — fixed header, then checksummed sections — and streams it to a
/// sink with [`SnapshotWriter::write_to`].
///
/// Writes the current format (v2: 16-byte header, payloads zero-padded to 8 bytes so
/// every payload starts 8-aligned). [`SnapshotWriter::with_version`] can produce a
/// legacy v1 container for compatibility tooling and tests. The large arrays are
/// borrowed from the index (`'a`), so a writer costs a few small buffers however big
/// the index is.
#[derive(Debug)]
pub struct SnapshotWriter<'a> {
    kind: IndexKind,
    version: u16,
    sections: Vec<Section<'a>>,
}

impl<'a> SnapshotWriter<'a> {
    /// Starts a snapshot of the given kind in the current format version.
    pub fn new(kind: IndexKind) -> Self {
        Self::with_version(kind, FORMAT_VERSION)
    }

    /// Starts a snapshot in an explicit container version (v1 or v2). Section payload
    /// *contents* are the caller's responsibility — index kinds whose payload layout
    /// changed between versions (the projection tables) must write the matching one.
    ///
    /// # Panics
    ///
    /// Panics if `version` is not a known container version.
    pub fn with_version(kind: IndexKind, version: u16) -> Self {
        assert!(
            version == FORMAT_VERSION || version == FORMAT_VERSION_V1,
            "unknown container version {version}"
        );
        Self { kind, version, sections: Vec::new() }
    }

    /// Opens a new section and returns its payload to append into. The length and
    /// CRC32 are computed when the snapshot is written.
    pub fn section(&mut self, tag: [u8; 4]) -> &mut Section<'a> {
        self.sections.push(Section { tag, parts: Vec::new() });
        self.sections.last_mut().expect("section just pushed")
    }

    /// Streams the header and every section into `out`. Borrowed arrays whose memory
    /// already is their encoding ([`LeRecord::in_memory_le`]) are written as they are;
    /// everything else goes through one buffer of [`WRITE_CHUNK`] bytes, and is encoded
    /// twice: once for the section's CRC32 (which its header carries ahead of the
    /// payload), then for the bytes themselves.
    ///
    /// # Errors
    ///
    /// Whatever `out` returns; the bytes written so far are then a prefix of the
    /// snapshot.
    pub fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut sink = ChunkSink { out, buf: Vec::with_capacity(WRITE_CHUNK), written: 0 };
        sink.put(&MAGIC)?;
        sink.put(&self.version.to_le_bytes())?;
        sink.put(&[self.kind.tag(), 0])?; // kind, reserved
        sink.put(&(self.sections.len() as u32).to_le_bytes())?;
        if self.version >= 2 {
            sink.put(&[0u8; 4])?; // reserved; pads the header to 16 bytes
        }
        for section in &self.sections {
            let crc = sink.crc(&section.parts)?;
            sink.put(&section.tag)?;
            sink.put(&(section.byte_len() as u64).to_le_bytes())?;
            sink.put(&crc.to_le_bytes())?;
            for part in &section.parts {
                match part {
                    Part::Owned(bytes) => sink.put(bytes)?,
                    Part::Borrowed(records) => sink.put_records(records.as_ref())?,
                }
            }
            if self.version >= 2 {
                // Zero padding keeps the next section header (and therefore the next
                // payload) on an 8-byte boundary; the CRC covers the payload only.
                let pad = sink.written.next_multiple_of(SECTION_ALIGN) - sink.written;
                sink.put(&[0u8; SECTION_ALIGN][..pad])?;
            }
        }
        sink.flush()
    }
}

/// The write side of [`SnapshotWriter::write_to`]: one fixed buffer, handed to the sink
/// whenever it fills.
struct ChunkSink<'w> {
    out: &'w mut dyn Write,
    buf: Vec<u8>,
    /// Bytes put so far (flushed or buffered): the file offset of the next byte.
    written: usize,
}

impl ChunkSink<'_> {
    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let (now, rest) = bytes.split_at(bytes.len().min(WRITE_CHUNK - self.buf.len()));
            self.buf.extend_from_slice(now);
            self.written += now.len();
            bytes = rest;
            if self.buf.len() == WRITE_CHUNK {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn put_records(&mut self, records: &dyn Records) -> io::Result<()> {
        if let Some(bytes) = records.in_memory_le() {
            // Straight from the index, in one write. Besides skipping the copy, a large
            // write lets the page cache keep the file in large folios: a mapped load's
            // first touch and every later scan run measurably faster over those than
            // over the 64 KiB folios chunked writes leave (EXPERIMENTS.md, "Snapshots
            // stream from the index's own arrays").
            self.flush()?;
            self.out.write_all(bytes)?;
            self.written += bytes.len();
            return Ok(());
        }
        let mut next = 0;
        while next < records.count() {
            let fit = (WRITE_CHUNK - self.buf.len()) / records.width();
            if fit == 0 {
                self.flush()?;
                continue;
            }
            let end = records.count().min(next + fit);
            records.encode(next..end, &mut self.buf);
            self.written += (end - next) * records.width();
            next = end;
        }
        Ok(())
    }

    /// The CRC32 of a payload, encoding the borrowed runs that need it through the
    /// (flushed) buffer.
    fn crc(&mut self, parts: &[Part<'_>]) -> io::Result<u32> {
        self.flush()?;
        let mut state = !0;
        for part in parts {
            match part {
                Part::Owned(bytes) => state = kernels::crc32_update(state, bytes),
                Part::Borrowed(records) => match records.in_memory_le() {
                    Some(bytes) => state = kernels::crc32_update(state, bytes),
                    None => {
                        let per_chunk = WRITE_CHUNK / records.width();
                        for start in (0..records.count()).step_by(per_chunk) {
                            let end = records.count().min(start + per_chunk);
                            records.encode(start..end, &mut self.buf);
                            state = kernels::crc32_update(state, &self.buf);
                            self.buf.clear();
                        }
                    }
                },
            }
        }
        Ok(!state)
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// The bytes a snapshot is decoded from: either a plain in-memory buffer (the copying
/// loader) or a shared memory-mapped region (the zero-copy loader). Cheap to copy;
/// decoding never clones the underlying bytes.
#[derive(Debug, Clone, Copy)]
pub enum SnapshotSource<'a> {
    /// Decode by copying every array out of this buffer.
    Bytes(&'a [u8]),
    /// Decode zero-copy: arrays become [`VecBuf`] windows into the mapped region
    /// (requires a v2 container; v1 inputs silently demote to the copying path).
    Mapped(&'a Arc<MmapRegion>),
}

impl<'a> SnapshotSource<'a> {
    /// The raw snapshot bytes.
    pub fn bytes(&self) -> &'a [u8] {
        match self {
            SnapshotSource::Bytes(bytes) => bytes,
            SnapshotSource::Mapped(region) => region.as_bytes(),
        }
    }

    /// Demotes a mapped source to the copying path for container versions that cannot
    /// guarantee payload alignment (v1). Bit-identical either way — only the backing
    /// of the restored arrays differs.
    pub(crate) fn for_version(self, version: u16) -> Self {
        match self {
            SnapshotSource::Mapped(_) if version < 2 => SnapshotSource::Bytes(self.bytes()),
            other => other,
        }
    }
}

/// Parses the header of a snapshot buffer and walks its sections in order.
///
/// Reads both container versions: v2 (the current, aligned format) and the legacy v1.
/// For v2, the reader consumes and verifies the zero padding after every payload, so a
/// well-formed stream keeps every payload 8-aligned; crafted nonzero padding is a
/// typed [`StoreError::Misaligned`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    sections_left: u32,
    /// Index kind declared in the header.
    pub kind: IndexKind,
    /// Container version declared in the header ([`FORMAT_VERSION`] or
    /// [`FORMAT_VERSION_V1`]).
    pub version: u16,
}

impl<'a> SnapshotReader<'a> {
    /// Parses the fixed header. Fails on short input, wrong magic, an unsupported
    /// version, or an unknown kind tag.
    pub fn new(buf: &'a [u8]) -> StoreResult<Self> {
        if buf.len() < HEADER_LEN_V1 {
            return Err(StoreError::Truncated { context: "file header" });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[0..4]);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != FORMAT_VERSION && version != FORMAT_VERSION_V1 {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let header_len = if version >= 2 { HEADER_LEN } else { HEADER_LEN_V1 };
        if buf.len() < header_len {
            return Err(StoreError::Truncated { context: "file header" });
        }
        let kind = IndexKind::from_tag(buf[6]).ok_or(StoreError::UnknownKind(buf[6]))?;
        let sections_left = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        Ok(Self { buf, pos: header_len, sections_left, kind, version })
    }

    /// Reads the next section, which must carry `tag`, verifying its checksum (and,
    /// for v2, consuming and verifying the payload's zero padding).
    pub fn section(&mut self, tag: [u8; 4]) -> StoreResult<Payload<'a>> {
        if self.sections_left == 0 {
            return Err(StoreError::Truncated { context: "section count exhausted" });
        }
        if self.buf.len() - self.pos < SECTION_HEADER_LEN {
            return Err(StoreError::Truncated { context: "section header" });
        }
        let header = &self.buf[self.pos..self.pos + SECTION_HEADER_LEN];
        let mut found = [0u8; 4];
        found.copy_from_slice(&header[0..4]);
        if found != tag {
            return Err(StoreError::SectionTagMismatch { expected: tag, found });
        }
        let len64 = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
        let len = usize::try_from(len64)
            .map_err(|_| StoreError::Overflow { context: "section length" })?;
        let start = self.pos + SECTION_HEADER_LEN;
        if self.buf.len() - start < len {
            return Err(StoreError::Truncated { context: "section payload" });
        }
        let payload = &self.buf[start..start + len];
        let crc_start = std::time::Instant::now();
        let computed = crc32(payload);
        crate::metrics::record_crc(crc_start.elapsed().as_nanos() as u64, payload.len());
        if computed != stored_crc {
            return Err(StoreError::ChecksumMismatch {
                section: tag,
                stored: stored_crc,
                computed,
            });
        }
        self.pos = start + len;
        if self.version >= 2 {
            let pad = self.pos.next_multiple_of(SECTION_ALIGN) - self.pos;
            if self.buf.len() - self.pos < pad {
                return Err(StoreError::Truncated { context: "section padding" });
            }
            if self.buf[self.pos..self.pos + pad].iter().any(|&b| b != 0) {
                return Err(StoreError::Misaligned { section: tag, offset: self.pos });
            }
            self.pos += pad;
        }
        self.sections_left -= 1;
        Ok(Payload { tag, data: payload, file_offset: start, pos: 0 })
    }

    /// Asserts that every declared section was read and nothing follows the last one.
    pub fn finish(self) -> StoreResult<()> {
        if self.sections_left != 0 {
            return Err(StoreError::Truncated { context: "undeclared trailing sections" });
        }
        if self.pos != self.buf.len() {
            return Err(StoreError::TrailingBytes { count: self.buf.len() - self.pos });
        }
        Ok(())
    }
}

/// A checksum-verified section payload with typed, bounds-checked readers.
#[derive(Debug)]
pub struct Payload<'a> {
    tag: [u8; 4],
    data: &'a [u8],
    /// Absolute byte offset of the payload start within the snapshot file — what the
    /// zero-copy readers use to window a [`VecBuf`] into the mapped region.
    file_offset: usize,
    pos: usize,
}

impl<'a> Payload<'a> {
    /// This payload's section tag.
    pub fn tag(&self) -> [u8; 4] {
        self.tag
    }

    /// Total payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn take(&mut self, n: usize, context: &'static str) -> StoreResult<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return Err(StoreError::Truncated { context });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do not fit.
    pub fn get_u64_usize(&mut self, context: &'static str) -> StoreResult<usize> {
        let v = u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes"));
        usize::try_from(v).map_err(|_| StoreError::Overflow { context })
    }

    /// Reads a raw `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f32`.
    pub fn get_f32(&mut self, context: &'static str) -> StoreResult<Scalar> {
        Ok(Scalar::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    /// Reads `len` raw bytes.
    pub fn get_bytes(&mut self, len: usize, context: &'static str) -> StoreResult<&'a [u8]> {
        self.take(len, context)
    }

    /// Reads `len` scalars into an owned-or-mapped buffer. The byte size is computed
    /// with checked arithmetic and bounds-checked against the remaining payload *before*
    /// any allocation, so a hostile length cannot trigger an OOM or a panic. With a
    /// [`SnapshotSource::Bytes`] source this copies, decoding in place through
    /// [`VecBuf::from_fn`] (so an array of 1 MiB or more gets its own pages); with a
    /// mapped source it returns a zero-copy [`VecBuf`] window into the region, rejecting
    /// any window that is not 4-byte aligned with a typed [`StoreError::Misaligned`]
    /// (well-formed v2 files can never trigger this; it is the guard in front of the
    /// typed cast).
    pub fn get_f32_buf(
        &mut self,
        len: usize,
        src: SnapshotSource<'_>,
        context: &'static str,
    ) -> StoreResult<VecBuf<Scalar>> {
        match src {
            SnapshotSource::Bytes(_) => self.copy_buf(len, context, Scalar::from_le_bytes),
            SnapshotSource::Mapped(region) => self.map_buf(len, region, context),
        }
    }

    /// Reads `len` `u32`s into an owned-or-mapped buffer (see [`Payload::get_f32_buf`]).
    pub fn get_u32_buf(
        &mut self,
        len: usize,
        src: SnapshotSource<'_>,
        context: &'static str,
    ) -> StoreResult<VecBuf<u32>> {
        match src {
            SnapshotSource::Bytes(_) => self.copy_buf(len, context, u32::from_le_bytes),
            SnapshotSource::Mapped(region) => self.map_buf(len, region, context),
        }
    }

    /// Shared copying arm of the buffer readers: consumes `len` 4-byte elements from
    /// the payload cursor and decodes them in place into an owned buffer.
    fn copy_buf<T: p2h_core::BufElem>(
        &mut self,
        len: usize,
        context: &'static str,
        decode: fn([u8; 4]) -> T,
    ) -> StoreResult<VecBuf<T>> {
        let bytes = len.checked_mul(4).ok_or(StoreError::Overflow { context })?;
        let raw = self.take(bytes, context)?;
        Ok(VecBuf::from_fn(len, |values| {
            for (value, c) in values.iter_mut().zip(raw.chunks_exact(4)) {
                *value = decode(c.try_into().expect("4 bytes"));
            }
        }))
    }

    /// Shared zero-copy arm of the buffer readers: consumes `len` 4-byte elements from
    /// the payload cursor and windows them out of the mapped region.
    fn map_buf<T: p2h_core::BufElem>(
        &mut self,
        len: usize,
        region: &Arc<MmapRegion>,
        context: &'static str,
    ) -> StoreResult<VecBuf<T>> {
        let offset = self.file_offset + self.pos;
        let bytes = len.checked_mul(4).ok_or(StoreError::Overflow { context })?;
        self.take(bytes, context)?;
        VecBuf::mapped(Arc::clone(region) as Arc<dyn BufBacking>, offset, len)
            .map_err(|_| StoreError::Misaligned { section: self.tag, offset })
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> StoreResult<()> {
        if self.pos != self.data.len() {
            return Err(StoreError::SectionLength {
                section: self.tag,
                expected: self.pos as u64,
                found: self.data.len() as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bytes(writer: &SnapshotWriter<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut writer = SnapshotWriter::new(IndexKind::BallTree);
        let meta = writer.section(*b"META");
        meta.put_u64(42);
        meta.put_u32(7);
        writer.section(*b"PNTS").records(&[1.5, -2.25, 0.0]);
        let bytes = to_bytes(&writer);

        let mut reader = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(reader.kind, IndexKind::BallTree);
        assert_eq!(reader.version, FORMAT_VERSION);
        let mut meta = reader.section(*b"META").unwrap();
        assert_eq!(meta.get_u64("42").unwrap(), 42);
        assert_eq!(meta.get_u32("7").unwrap(), 7);
        meta.finish().unwrap();
        let mut body = reader.section(*b"PNTS").unwrap();
        let floats = body.get_f32_buf(3, SnapshotSource::Bytes(&bytes), "floats").unwrap();
        assert_eq!(floats.to_vec(), vec![1.5, -2.25, 0.0]);
        body.finish().unwrap();
        reader.finish().unwrap();
    }

    /// Records without an in-memory encoding go through the chunk buffer: across many
    /// chunks, with a tail and an owned run ahead of them in the buffer, they must
    /// write and checksum exactly what the same values written from memory do.
    #[test]
    fn encoded_records_write_what_in_memory_records_write() {
        struct Encoded(Scalar);
        impl LeRecord for Encoded {
            const WIDTH: usize = 4;

            fn put_le(&self, out: &mut [u8]) {
                self.0.put_le(out);
            }
        }
        let values: Vec<Scalar> =
            (0..3 * WRITE_CHUNK / 4 + 37).map(|i| i as Scalar * 0.37).collect();
        let encoded: Vec<Encoded> = values.iter().map(|&v| Encoded(v)).collect();
        let mut from_memory = SnapshotWriter::new(IndexKind::LinearScan);
        from_memory.section(*b"META").put_u32(7);
        let body = from_memory.section(*b"PNTS");
        body.put_u64(values.len() as u64);
        body.records(&values);
        let mut through_buffer = SnapshotWriter::new(IndexKind::LinearScan);
        through_buffer.section(*b"META").put_u32(7);
        let body = through_buffer.section(*b"PNTS");
        body.put_u64(values.len() as u64);
        body.records(&encoded);
        let bytes = to_bytes(&from_memory);
        assert_eq!(to_bytes(&through_buffer), bytes);

        let mut reader = SnapshotReader::new(&bytes).unwrap();
        reader.section(*b"META").unwrap();
        let mut body = reader.section(*b"PNTS").unwrap();
        assert_eq!(body.get_u64_usize("count").unwrap(), values.len());
        let read = body.get_f32_buf(values.len(), SnapshotSource::Bytes(&bytes), "values");
        assert_eq!(read.unwrap().to_vec(), values);
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(matches!(
            SnapshotReader::new(&[]),
            Err(StoreError::Truncated { context: "file header" })
        ));
        let mut bytes = to_bytes(&SnapshotWriter::new(IndexKind::LinearScan));
        bytes[0] = b'X';
        assert!(matches!(SnapshotReader::new(&bytes), Err(StoreError::BadMagic { .. })));
        let mut bytes = to_bytes(&SnapshotWriter::new(IndexKind::LinearScan));
        bytes[4] = 99;
        assert!(matches!(
            SnapshotReader::new(&bytes),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        let mut bytes = to_bytes(&SnapshotWriter::new(IndexKind::LinearScan));
        bytes[6] = 17;
        assert!(matches!(SnapshotReader::new(&bytes), Err(StoreError::UnknownKind(17))));
    }

    #[test]
    fn section_errors_are_typed() {
        let mut writer = SnapshotWriter::new(IndexKind::BcTree);
        writer.section(*b"META").put_u32(5);
        let good = to_bytes(&writer);

        // Wrong expected tag.
        let mut reader = SnapshotReader::new(&good).unwrap();
        assert!(matches!(reader.section(*b"PNTS"), Err(StoreError::SectionTagMismatch { .. })));

        // Flipped payload bit → checksum mismatch (first payload byte; the file may
        // end in zero padding, which is covered by the alignment check instead).
        let mut corrupt = good.clone();
        let payload_start = HEADER_LEN + SECTION_HEADER_LEN;
        corrupt[payload_start] ^= 0x40;
        let mut reader = SnapshotReader::new(&corrupt).unwrap();
        assert!(matches!(reader.section(*b"META"), Err(StoreError::ChecksumMismatch { .. })));

        // Huge declared length → truncated, no allocation.
        let mut huge = good.clone();
        huge[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut reader = SnapshotReader::new(&huge).unwrap();
        assert!(matches!(
            reader.section(*b"META"),
            Err(StoreError::Truncated { .. }) | Err(StoreError::Overflow { .. })
        ));

        // Trailing garbage after the declared sections.
        let mut trailing = good.clone();
        trailing.extend_from_slice(b"junk");
        let mut reader = SnapshotReader::new(&trailing).unwrap();
        reader.section(*b"META").unwrap();
        assert!(matches!(reader.finish(), Err(StoreError::TrailingBytes { count: 4 })));

        // Reading more sections than declared.
        let mut reader = SnapshotReader::new(&good).unwrap();
        reader.section(*b"META").unwrap();
        assert!(matches!(reader.section(*b"PNTS"), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn payload_reads_are_bounds_checked() {
        let mut writer = SnapshotWriter::new(IndexKind::LinearScan);
        writer.section(*b"META").put_u32(1);
        let bytes = to_bytes(&writer);
        let mut reader = SnapshotReader::new(&bytes).unwrap();
        let mut payload = reader.section(*b"META").unwrap();
        assert!(matches!(payload.get_u64("too long"), Err(StoreError::Truncated { .. })));
        assert!(matches!(
            payload.get_f32_buf(usize::MAX / 2, SnapshotSource::Bytes(&bytes), "overflow"),
            Err(StoreError::Overflow { .. })
        ));
        payload.get_u32("ok").unwrap();
        // Unconsumed payload bytes are an error through `finish`.
        let mut reader = SnapshotReader::new(&bytes).unwrap();
        let payload = reader.section(*b"META").unwrap();
        assert!(matches!(payload.finish(), Err(StoreError::SectionLength { .. })));
    }
}
