//! CRC-framed write-ahead log segments for the live (mutable) index tier.
//!
//! A WAL segment is the durability record of one memtable epoch: every insert or
//! delete accepted by a `p2h-live` index is framed, appended, and fsynced **before**
//! the operation is acknowledged, so a crash at any instant loses no acknowledged
//! write. See `docs/SNAPSHOT_FORMAT.md` for the byte-level spec.
//!
//! ```text
//! header   magic "P2HW" · version u16 · reserved u16 (zero)
//!          · epoch u64 · augmented dim u64 · first id u32 · reserved u32   (32 bytes)
//! frame    payload length u32 · CRC32(payload) u32 · payload               (repeats)
//! payload  op u8 = 1 (insert) · id u32 · point f32 × dim
//!          op u8 = 2 (delete) · id u32
//! ```
//!
//! All integers are little-endian. Frames are *not* padded: the segment is an
//! append-only stream, never memory-mapped.
//!
//! ## Recovery rules
//!
//! Replay distinguishes a **torn tail** from **corruption**:
//!
//! * A final frame that extends past end-of-file (the crash hit mid-append) is
//!   silently dropped — by construction it was never acknowledged, because the fsync
//!   that would have acknowledged it never completed. Likewise a final,
//!   fully-contained frame whose CRC fails (the filesystem committed the frame's
//!   length before all of its data).
//! * Anything else — a mid-segment CRC failure, a payload whose length disagrees
//!   with its op code, an unknown op, a non-sequential insert id — is a typed
//!   [`StoreError::WalCorrupt`]: no valid writer history produces it, so replay
//!   refuses rather than serve wrong answers.
//!
//! Appending after recovery truncates the torn tail first, so the stream stays a
//! prefix of valid frames at all times.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use p2h_core::Scalar;

use crate::crc32::crc32;
use crate::format::{io_error, StoreError, StoreResult};
use crate::retry::retry_interrupted;

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"P2HW";

/// The current WAL segment format version.
pub const WAL_VERSION: u16 = 1;

/// Byte length of the segment header.
pub const WAL_HEADER_LEN: usize = 32;

/// Byte length of a frame header (payload length + CRC32).
pub const WAL_FRAME_HEADER_LEN: usize = 8;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;

/// One logged operation, in replay order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A point insert: the assigned global id and the augmented point
    /// (`dim` scalars, last coordinate 1).
    Insert {
        /// Global id assigned to the point (sequential within the segment).
        id: u32,
        /// The augmented point, `dim` scalars.
        point: Vec<Scalar>,
    },
    /// A point delete by global id.
    Delete {
        /// Global id of the deleted point.
        id: u32,
    },
}

/// The fixed header of a WAL segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Store epoch this segment belongs to.
    pub epoch: u64,
    /// Augmented point dimensionality of every insert in the segment.
    pub dim: usize,
    /// The id the first insert in this segment must carry (the live index's
    /// `next_id` at the moment the segment was opened).
    pub first_id: u32,
}

impl WalHeader {
    fn encode(&self) -> [u8; WAL_HEADER_LEN] {
        let mut buf = [0u8; WAL_HEADER_LEN];
        buf[0..4].copy_from_slice(&WAL_MAGIC);
        buf[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
        // bytes 6..8 reserved (zero)
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..24].copy_from_slice(&(self.dim as u64).to_le_bytes());
        buf[24..28].copy_from_slice(&self.first_id.to_le_bytes());
        // bytes 28..32 reserved (zero)
        buf
    }

    fn decode(bytes: &[u8]) -> StoreResult<Self> {
        if bytes.len() < WAL_HEADER_LEN {
            return Err(StoreError::WalCorrupt { message: "truncated segment header".into() });
        }
        if bytes[0..4] != WAL_MAGIC {
            return Err(StoreError::WalCorrupt {
                message: format!("bad magic {:?}: not a P2HW segment", &bytes[0..4]),
            });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != WAL_VERSION {
            return Err(StoreError::WalCorrupt {
                message: format!("unsupported WAL version {version} (this build reads 1)"),
            });
        }
        let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let dim64 = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let dim = usize::try_from(dim64)
            .ok()
            .filter(|&d| d >= 2 && d <= u32::MAX as usize)
            .ok_or_else(|| StoreError::WalCorrupt {
                message: format!("implausible dimension {dim64} in segment header"),
            })?;
        let first_id = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes"));
        Ok(Self { epoch, dim, first_id })
    }
}

/// The result of replaying one WAL segment.
#[derive(Debug)]
pub struct WalReplay {
    /// The segment header.
    pub header: WalHeader,
    /// The valid operations, in append order.
    pub ops: Vec<WalOp>,
    /// Byte length of the valid prefix (header + complete frames). Appending after
    /// recovery truncates the file to this length first.
    pub valid_len: u64,
    /// Whether a torn tail (an unacknowledged partial final frame) was dropped.
    pub torn_tail: bool,
}

/// Encodes one operation into a frame payload.
fn encode_op(payload: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Insert { id, point } => {
            payload.push(OP_INSERT);
            payload.extend_from_slice(&id.to_le_bytes());
            payload.reserve(point.len() * 4);
            for &v in point {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        WalOp::Delete { id } => {
            payload.push(OP_DELETE);
            payload.extend_from_slice(&id.to_le_bytes());
        }
    }
}

/// Decodes one checksum-verified frame payload. `next_id` is the id the next insert
/// must carry; it is advanced on success.
fn decode_op(payload: &[u8], dim: usize, next_id: &mut u32) -> StoreResult<WalOp> {
    let corrupt = |message: String| StoreError::WalCorrupt { message };
    let Some((&op, rest)) = payload.split_first() else {
        return Err(corrupt("empty frame payload".into()));
    };
    match op {
        OP_INSERT => {
            let expected = 4 + dim * 4;
            if rest.len() != expected {
                return Err(corrupt(format!(
                    "insert frame holds {} payload bytes after the op byte, dim {dim} implies {expected}",
                    rest.len()
                )));
            }
            let id = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
            if id != *next_id {
                return Err(corrupt(format!(
                    "insert id {id} breaks the sequential id stream (expected {next_id})"
                )));
            }
            *next_id =
                next_id.checked_add(1).ok_or_else(|| corrupt("id space exhausted".into()))?;
            let point = rest[4..]
                .chunks_exact(4)
                .map(|c| Scalar::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            Ok(WalOp::Insert { id, point })
        }
        OP_DELETE => {
            if rest.len() != 4 {
                return Err(corrupt(format!(
                    "delete frame holds {} payload bytes after the op byte, expected 4",
                    rest.len()
                )));
            }
            Ok(WalOp::Delete { id: u32::from_le_bytes(rest.try_into().expect("4 bytes")) })
        }
        other => Err(corrupt(format!("unknown op code {other}"))),
    }
}

/// Reads and replays a WAL segment, applying the recovery rules in the module
/// documentation.
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read; [`StoreError::WalCorrupt`] for any
/// malformation beyond a torn tail. Never panics on hostile bytes.
pub fn replay_wal(path: &Path) -> StoreResult<WalReplay> {
    let bytes =
        retry_interrupted("live.wal.read", || fs::read(path)).map_err(|e| io_error(path, e))?;
    let header = WalHeader::decode(&bytes)?;
    let mut ops = Vec::new();
    let mut next_id = header.first_id;
    let mut pos = WAL_HEADER_LEN;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(WalReplay { header, ops, valid_len: pos as u64, torn_tail: false });
        }
        if remaining < WAL_FRAME_HEADER_LEN {
            // Crash mid-frame-header: necessarily the unacknowledged final append.
            return Ok(WalReplay { header, ops, valid_len: pos as u64, torn_tail: true });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > remaining - WAL_FRAME_HEADER_LEN {
            // The frame extends past end-of-file: a torn final append. (A hostile
            // length lands here too — it cannot smuggle bytes past the CRC below.)
            return Ok(WalReplay { header, ops, valid_len: pos as u64, torn_tail: true });
        }
        let payload = &bytes[pos + WAL_FRAME_HEADER_LEN..pos + WAL_FRAME_HEADER_LEN + len];
        let frame_end = pos + WAL_FRAME_HEADER_LEN + len;
        if crc32(payload) != stored_crc {
            if frame_end == bytes.len() {
                // Final frame, fully contained, bad CRC: the filesystem committed the
                // frame length before all of its data. Unacknowledged — drop it.
                return Ok(WalReplay { header, ops, valid_len: pos as u64, torn_tail: true });
            }
            return Err(StoreError::WalCorrupt {
                message: format!("CRC mismatch in frame at byte {pos} with frames following"),
            });
        }
        ops.push(decode_op(payload, header.dim, &mut next_id)?);
        pos = frame_end;
    }
}

/// An open WAL segment accepting fsync-batched appends.
///
/// Every [`WalWriter::append`] call writes all of its frames with one `write` and one
/// `fdatasync`; when it returns `Ok`, the batch is durable. The I/O goes through the
/// `live.wal.append` and `live.wal.fsync` fault points (see [`crate::retry`]), so the
/// chaos harness can inject `EINTR`, stalls, and hard failures exactly where a real
/// kernel would produce them.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    header: WalHeader,
    len: u64,
    /// Set when a failed append could not be rolled back: the on-disk suffix past
    /// `len` is unknown, so further appends are refused (reopen via replay instead).
    poisoned: bool,
}

impl WalWriter {
    /// Creates a new segment at `path`, writes its header, and makes the file (and,
    /// on Unix, its directory entry) durable before returning. Fails if the file
    /// already exists — segments are never silently clobbered.
    pub fn create(path: &Path, header: WalHeader) -> StoreResult<Self> {
        if header.dim < 2 {
            return Err(StoreError::Invalid(p2h_core::Error::InvalidDimension(header.dim)));
        }
        let mut file = retry_interrupted("live.wal.append", || {
            OpenOptions::new().write(true).create_new(true).open(path)
        })
        .map_err(|e| io_error(path, e))?;
        retry_interrupted("live.wal.append", || file.write_all(&header.encode()))
            .map_err(|e| io_error(path, e))?;
        retry_interrupted("live.wal.fsync", || file.sync_all()).map_err(|e| io_error(path, e))?;
        if let Some(dir) = path.parent() {
            fsync_dir(dir)?;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            header,
            len: WAL_HEADER_LEN as u64,
            poisoned: false,
        })
    }

    /// Reopens a replayed segment for appending, truncating any torn tail so the file
    /// is exactly the valid prefix again.
    pub fn reopen(path: &Path, replay: &WalReplay) -> StoreResult<Self> {
        let mut file =
            retry_interrupted("live.wal.append", || OpenOptions::new().write(true).open(path))
                .map_err(|e| io_error(path, e))?;
        retry_interrupted("live.wal.append", || file.set_len(replay.valid_len))
            .map_err(|e| io_error(path, e))?;
        if replay.torn_tail {
            // Make the truncation durable before new frames land where the torn
            // bytes were — a crash must never resurrect half of a dropped frame.
            retry_interrupted("live.wal.fsync", || file.sync_all())
                .map_err(|e| io_error(path, e))?;
        }
        retry_interrupted("live.wal.append", || {
            file.seek(SeekFrom::Start(replay.valid_len)).map(|_| ())
        })
        .map_err(|e| io_error(path, e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            header: replay.header,
            len: replay.valid_len,
            poisoned: false,
        })
    }

    /// The segment header.
    pub fn header(&self) -> &WalHeader {
        &self.header
    }

    /// Current durable segment length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds no frames yet.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN as u64
    }

    /// Appends a batch of operations as one write followed by one `fdatasync`.
    /// Returns the number of bytes appended. When this returns `Ok`, every operation
    /// in the batch is durable (the acknowledgement point of the live index).
    ///
    /// Insert points must carry exactly `dim` scalars; violating that is a caller bug
    /// reported as a typed error before anything is written.
    pub fn append(&mut self, ops: &[WalOp]) -> StoreResult<u64> {
        if self.poisoned {
            return Err(io_error(
                &self.path,
                std::io::Error::other(
                    "WAL writer poisoned by an unrolled-back append failure; reopen the segment",
                ),
            ));
        }
        let mut batch = Vec::new();
        let mut payload = Vec::new();
        for op in ops {
            if let WalOp::Insert { point, .. } = op {
                if point.len() != self.header.dim {
                    return Err(StoreError::Invalid(p2h_core::Error::DimensionMismatch {
                        expected: self.header.dim,
                        actual: point.len(),
                    }));
                }
            }
            payload.clear();
            encode_op(&mut payload, op);
            batch.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            batch.extend_from_slice(&crc32(&payload).to_le_bytes());
            batch.extend_from_slice(&payload);
        }
        if batch.is_empty() {
            return Ok(0);
        }
        let written = retry_interrupted("live.wal.append", || self.file.write_all(&batch))
            .and_then(|()| retry_interrupted("live.wal.fsync", || self.file.sync_data()));
        if let Err(e) = written {
            // Roll the partial append back: without this, a caller retrying the same
            // (unacknowledged) batch would append duplicate insert ids after the
            // half-written frames, which replay rightly refuses as corruption.
            let rolled = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
            if rolled.is_err() {
                self.poisoned = true;
            }
            return Err(io_error(&self.path, e));
        }
        self.len += batch.len() as u64;
        Ok(batch.len() as u64)
    }
}

/// Fsyncs a directory so recent renames and file creations within it are durable.
/// A no-op on platforms where directories cannot be opened for syncing.
pub(crate) fn fsync_dir(dir: &Path) -> StoreResult<()> {
    #[cfg(unix)]
    {
        let handle = retry_interrupted("live.wal.fsync", || File::open(dir))
            .map_err(|e| io_error(dir, e))?;
        retry_interrupted("live.wal.fsync", || handle.sync_all()).map_err(|e| io_error(dir, e))?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TestDir;

    fn sample_ops(dim: usize, first_id: u32) -> Vec<WalOp> {
        vec![
            WalOp::Insert { id: first_id, point: vec![0.5; dim] },
            WalOp::Insert { id: first_id + 1, point: vec![-1.25; dim] },
            WalOp::Delete { id: first_id },
            WalOp::Insert { id: first_id + 2, point: vec![2.0; dim] },
        ]
    }

    #[test]
    fn round_trip_and_reopen() {
        let dir = TestDir::new("wal-round-trip");
        let path = dir.join("segment.wal");
        let header = WalHeader { epoch: 3, dim: 4, first_id: 100 };
        let mut writer = WalWriter::create(&path, header).unwrap();
        let ops = sample_ops(4, 100);
        writer.append(&ops[..2]).unwrap();
        writer.append(&ops[2..]).unwrap();
        let logged_len = writer.len();
        drop(writer);

        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.header, header);
        assert_eq!(replay.ops, ops);
        assert_eq!(replay.valid_len, logged_len);
        assert!(!replay.torn_tail);

        // Reopen and append more; the stream keeps replaying cleanly.
        let mut writer = WalWriter::reopen(&path, &replay).unwrap();
        writer.append(&[WalOp::Delete { id: 101 }]).unwrap();
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.ops.len(), 5);
        assert_eq!(replay.ops[4], WalOp::Delete { id: 101 });
    }

    #[test]
    fn create_refuses_existing_segment() {
        let dir = TestDir::new("wal-no-clobber");
        let path = dir.join("segment.wal");
        let header = WalHeader { epoch: 0, dim: 3, first_id: 0 };
        WalWriter::create(&path, header).unwrap();
        assert!(matches!(WalWriter::create(&path, header), Err(StoreError::Io { .. })));
    }

    /// Every truncation point of a valid segment either replays a prefix of the ops
    /// (torn tail) or fails the header check — never a panic, never a wrong op.
    #[test]
    fn truncation_sweep_yields_prefixes() {
        let dir = TestDir::new("wal-truncate");
        let path = dir.join("segment.wal");
        let header = WalHeader { epoch: 1, dim: 3, first_id: 7 };
        let mut writer = WalWriter::create(&path, header).unwrap();
        let ops = sample_ops(3, 7);
        writer.append(&ops).unwrap();
        drop(writer);
        let full = fs::read(&path).unwrap();

        let cut_path = dir.join("damaged.wal");
        for cut in 0..full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            match replay_wal(&cut_path) {
                Ok(replay) => {
                    // A cut at a frame boundary is a valid shorter segment
                    // (torn_tail = false); anywhere else drops the partial frame.
                    assert!(cut >= WAL_HEADER_LEN);
                    assert_eq!(replay.ops, ops[..replay.ops.len()]);
                    assert!(replay.valid_len as usize <= cut);
                    assert_eq!(replay.torn_tail, replay.valid_len as usize != cut);
                }
                Err(StoreError::WalCorrupt { .. }) => assert!(cut < WAL_HEADER_LEN),
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
    }

    /// A flipped bit in any frame byte is caught: mid-segment flips are typed
    /// corruption, final-frame payload flips are dropped as a torn tail, and no flip
    /// ever replays a wrong operation.
    #[test]
    fn bit_flip_sweep_never_replays_wrong_ops() {
        let dir = TestDir::new("wal-bitflip");
        let path = dir.join("segment.wal");
        let header = WalHeader { epoch: 2, dim: 2, first_id: 0 };
        let mut writer = WalWriter::create(&path, header).unwrap();
        let ops = sample_ops(2, 0);
        writer.append(&ops).unwrap();
        drop(writer);
        let full = fs::read(&path).unwrap();

        let flip_path = dir.join("damaged.wal");
        for byte in WAL_HEADER_LEN..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x10;
            fs::write(&flip_path, &flipped).unwrap();
            match replay_wal(&flip_path) {
                Ok(replay) => {
                    // Whatever replays must be a prefix of the original ops: a
                    // single-bit flip cannot pass the CRC, so the only Ok outcomes
                    // are a dropped final frame or an untouched stream.
                    assert!(replay.ops.len() < ops.len() || replay.ops == ops);
                    assert_eq!(replay.ops, ops[..replay.ops.len()]);
                }
                Err(StoreError::WalCorrupt { .. }) => {}
                Err(other) => panic!("unexpected error at byte {byte}: {other}"),
            }
        }
    }

    #[test]
    fn header_corruption_is_typed() {
        let dir = TestDir::new("wal-header");
        let path = dir.join("segment.wal");
        let header = WalHeader { epoch: 0, dim: 2, first_id: 0 };
        WalWriter::create(&path, header).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay_wal(&path), Err(StoreError::WalCorrupt { .. })));

        // Implausible dimension.
        let mut bytes = WalHeader { epoch: 0, dim: 2, first_id: 0 }.encode().to_vec();
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay_wal(&path), Err(StoreError::WalCorrupt { .. })));
    }

    #[test]
    fn non_sequential_insert_is_corrupt() {
        let dir = TestDir::new("wal-seq");
        let path = dir.join("segment.wal");
        let header = WalHeader { epoch: 0, dim: 2, first_id: 5 };
        let mut writer = WalWriter::create(&path, header).unwrap();
        // Bypass the live index's id assignment: log an out-of-order id directly.
        writer.append(&[WalOp::Insert { id: 9, point: vec![0.0, 1.0] }]).unwrap();
        // Trailing valid frame so the bad one is not drop-eligible as a torn tail.
        writer.append(&[WalOp::Delete { id: 0 }]).unwrap();
        drop(writer);
        assert!(matches!(replay_wal(&path), Err(StoreError::WalCorrupt { .. })));
    }

    #[test]
    fn append_validates_dimension() {
        let dir = TestDir::new("wal-dim");
        let path = dir.join("segment.wal");
        let mut writer =
            WalWriter::create(&path, WalHeader { epoch: 0, dim: 4, first_id: 0 }).unwrap();
        let err = writer.append(&[WalOp::Insert { id: 0, point: vec![1.0; 3] }]).unwrap_err();
        assert!(matches!(err, StoreError::Invalid(_)));
        // Nothing was written: the segment still replays empty.
        drop(writer);
        let replay = replay_wal(&path).unwrap();
        assert!(replay.ops.is_empty());
    }
}
