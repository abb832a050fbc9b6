//! Memory-mapped snapshot regions: the zero-copy backing behind `LoadMode::Mmap`.
//!
//! **This module is the only place in the workspace that contains `unsafe` code for
//! the storage layer** (the crate root carries `#![deny(unsafe_code)]`; this module is
//! exempted). Three operations need it, all confined here:
//!
//! 1. the calls to `mmap(2)`/`munmap(2)` that map and unmap a snapshot file, through
//!    the externs declared once for the workspace in [`p2h_core::pages::sys`] (no
//!    `libc` crate dependency: `std` already links the C library they live in),
//! 2. the `[u8] → [f32]`/`[u8] → [u32]` reinterpretation that serves typed slices to
//!    [`p2h_core::VecBuf`] through the safe [`BufBacking`] trait, and
//! 3. its reverse for the writer, [`le_bytes`]: an index's `f32`/`u32` arrays viewed
//!    as the bytes a snapshot stores, so a save writes them without encoding.
//!
//! Soundness relies on three facts, each enforced before a cast happens:
//!
//! * mmap bases are page-aligned, so 8-byte *file* alignment (guaranteed by format v2
//!   and validated by the reader) is 8-byte *address* alignment;
//! * every window is bounds- and alignment-checked (`VecBuf::mapped` rejects hostile
//!   offsets with typed errors; the accessors here re-assert the contract);
//! * the mapping is `PROT_READ` + `MAP_PRIVATE` and the store never mutates a live
//!   snapshot file in place (replacements are staged under fresh epoch names and
//!   switched via the manifest), so the viewed bytes are immutable for the mapping's
//!   lifetime. Truncating a mapped file externally is undefined behavior at the OS
//!   level (`SIGBUS`), as with any mmap consumer; do not modify store directories
//!   out-of-band while a process is serving from them.
//!
//! `Scalar` reads assume little-endian storage (the format is little-endian); on a
//! big-endian host the store silently falls back to the copying loader, which decodes
//! byte-by-byte.

use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use p2h_core::{BufBacking, Scalar};

use crate::format::{io_error, StoreResult};

/// How a `Store` (or a standalone snapshot load) materializes array payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Read the file and copy every array into a fresh owned buffer (the default;
    /// works for every container version). An array of 1 MiB or more is page-backed:
    /// its own anonymous mapping, unmapped when the index drops (see
    /// [`p2h_core::buf`]); a smaller one is a heap `Vec`.
    #[default]
    Copy,
    /// Map the file with `mmap(2)` and serve the arrays as zero-copy views into the
    /// mapping. Needs a v2 snapshot (v1 files silently demote to `Copy`); answers are
    /// bit-identical either way. Cold-start cost drops to one checksum pass, peak RSS
    /// no longer doubles, and the page cache shares the bytes between every process
    /// mapping the same file.
    Mmap,
}

impl LoadMode {
    /// Resolves the mode from the `P2H_STORE_MMAP` environment variable (`1`/`true`
    /// selects [`LoadMode::Mmap`]), defaulting to [`LoadMode::Copy`]. This is how CI
    /// runs the whole test suite under both loaders.
    pub fn from_env() -> Self {
        match std::env::var("P2H_STORE_MMAP") {
            Ok(value) if value == "1" || value.eq_ignore_ascii_case("true") => LoadMode::Mmap,
            _ => LoadMode::Copy,
        }
    }
}

/// A file's bytes read under a [`LoadMode`]: the owner behind a
/// [`crate::format::SnapshotSource`].
#[derive(Debug)]
pub(crate) enum SourceOwner {
    Bytes(Vec<u8>),
    Mapped(Arc<MmapRegion>),
}

impl SourceOwner {
    /// Reads `path` according to `mode`. Big-endian hosts always copy: the zero-copy
    /// typed views assume little-endian storage.
    pub(crate) fn read(path: &Path, mode: LoadMode) -> StoreResult<Self> {
        let mode = if cfg!(target_endian = "big") { LoadMode::Copy } else { mode };
        let start = std::time::Instant::now();
        let owner = match mode {
            LoadMode::Copy => SourceOwner::Bytes(
                crate::retry::retry_interrupted("store.read", || std::fs::read(path))
                    .map_err(|e| io_error(path, e))?,
            ),
            LoadMode::Mmap => SourceOwner::Mapped(MmapRegion::map_file(path)?),
        };
        crate::metrics::record_read(mode, start.elapsed().as_nanos() as u64, owner.byte_len());
        Ok(owner)
    }

    /// The number of bytes this owner materialized (owned or mapped).
    fn byte_len(&self) -> usize {
        match self {
            SourceOwner::Bytes(bytes) => bytes.len(),
            SourceOwner::Mapped(region) => region.len(),
        }
    }

    /// Borrows this owner as a decode source.
    pub(crate) fn as_src(&self) -> crate::format::SnapshotSource<'_> {
        match self {
            SourceOwner::Bytes(bytes) => crate::format::SnapshotSource::Bytes(bytes),
            SourceOwner::Mapped(region) => crate::format::SnapshotSource::Mapped(region),
        }
    }
}

/// An immutable, shared byte region backing zero-copy snapshot loads — one region per
/// snapshot file (shard groups map one region per epoch file).
///
/// On Unix hosts the region is a real `mmap(2)` mapping, unmapped on drop. Elsewhere
/// (or if the syscall fails) it degrades to a heap buffer read from the file — same
/// API, same results, no mapping.
pub struct MmapRegion {
    base: Base,
}

enum Base {
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Owned(AlignedBytes),
}

/// Heap bytes stored in a `u64` allocation so the base pointer is 8-aligned — the same
/// guarantee a page-aligned mmap base gives, which the typed accessors rely on.
struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn new(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        for (word, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_ne_bytes(buf);
        }
        Self { words, len: bytes.len() }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: the allocation holds at least `len` initialized bytes (zero-padded
        // to the word boundary), is immutable, and outlives the borrow.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

// SAFETY: the region is read-only for its entire lifetime (PROT_READ mapping or an
// owned buffer nothing mutates), so shared references may cross threads freely.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps `path` read-only. A zero-length file (or a host/syscall that cannot map)
    /// yields a heap-backed region with identical behavior.
    pub fn map_file(path: &Path) -> StoreResult<Arc<Self>> {
        let file = crate::retry::retry_interrupted("store.read", || File::open(path))
            .map_err(|e| io_error(path, e))?;
        let len = file.metadata().map_err(|e| io_error(path, e))?.len();
        let len = usize::try_from(len).map_err(|_| {
            io_error(path, std::io::Error::other("file larger than the address space"))
        })?;
        #[cfg(unix)]
        if len > 0 {
            use p2h_core::pages::sys;
            use std::os::fd::AsRawFd;
            // SAFETY: fd is a valid open file descriptor for the whole call; we map
            // the entire file read-only/private at an OS-chosen address. The fd may be
            // closed right after — the mapping keeps its own reference.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if sys::mapped(ptr) {
                return Ok(Arc::new(Self { base: Base::Mapped { ptr: ptr as *const u8, len } }));
            }
        }
        // Fallback: read into an owned aligned buffer (empty files, exotic
        // filesystems, non-Unix hosts). Behaviorally identical, just not shared with
        // other processes.
        let bytes = crate::retry::retry_interrupted("store.read", || std::fs::read(path))
            .map_err(|e| io_error(path, e))?;
        Ok(Arc::new(Self { base: Base::Owned(AlignedBytes::new(&bytes)) }))
    }

    /// Wraps an in-memory buffer as a region — for tests and tooling that exercise the
    /// zero-copy decode paths without touching the filesystem. The bytes are copied
    /// into an 8-aligned allocation so the same alignment guarantees as a real mapping
    /// hold.
    pub fn from_bytes(bytes: Vec<u8>) -> Arc<Self> {
        Arc::new(Self { base: Base::Owned(AlignedBytes::new(&bytes)) })
    }

    /// The mapped (or owned) bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.base {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by `self`
            // (unmapped only on drop), so the slice is valid for `self`'s lifetime.
            Base::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Base::Owned(bytes) => bytes.as_bytes(),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        match &self.base {
            #[cfg(unix)]
            Base::Mapped { len, .. } => *len,
            Base::Owned(bytes) => bytes.len,
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serves a typed 4-byte-element view. The caller contract (enforced with typed
    /// errors by `VecBuf::mapped` before any call lands here) is re-asserted: panics
    /// on a violating offset/len, which would indicate a bug, not hostile input.
    fn typed<T: Copy>(&self, offset: usize, len: usize) -> &[T] {
        let bytes = self.as_bytes();
        let elem = std::mem::size_of::<T>();
        let end = offset.checked_add(len * elem).expect("typed window overflows");
        assert!(end <= bytes.len(), "typed window {offset}..{end} exceeds region");
        let ptr = bytes[offset..].as_ptr();
        assert_eq!(ptr as usize % std::mem::align_of::<T>(), 0, "typed window misaligned");
        // SAFETY: the pointer is in-bounds for `len * size_of::<T>()` bytes (asserted
        // above), aligned (asserted above), and T is a plain-old-data 4-byte type
        // (f32/u32) for which any bit pattern is valid; the region is immutable and
        // outlives the returned borrow.
        unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), len) }
    }
}

/// The bytes of `values` as they sit in memory — on a little-endian target exactly
/// their little-endian encoding, which a save can then checksum and write as they are.
/// `None` on a big-endian target, where the writer encodes them instead.
pub(crate) fn le_bytes<T: p2h_core::BufElem>(values: &[T]) -> Option<&[u8]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: `BufElem` is sealed to `f32` and `u32`: no padding, every byte of a value
    // initialised. `u8` has alignment 1, and the length is exactly the slice's size in
    // bytes, so the view covers the borrowed slice and nothing else, for its lifetime.
    Some(unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), size_of_val(values)) })
}

impl BufBacking for MmapRegion {
    fn len_bytes(&self) -> usize {
        self.len()
    }

    fn f32s(&self, offset: usize, len: usize) -> &[Scalar] {
        self.typed(offset, len)
    }

    fn u32s(&self, offset: usize, len: usize) -> &[u32] {
        self.typed(offset, len)
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Base::Mapped { ptr, len } = self.base {
            // SAFETY: ptr/len came from a successful mmap owned exclusively by this
            // region; nothing can reference the mapping after drop (as_bytes borrows
            // end with `self`).
            unsafe {
                p2h_core::pages::sys::munmap(ptr as *mut std::os::raw::c_void, len);
            }
        }
    }
}

impl fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.base {
            #[cfg(unix)]
            Base::Mapped { .. } => "mmap",
            Base::Owned(_) => "heap",
        };
        write!(f, "MmapRegion({kind}, {} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::TestDir;

    #[test]
    fn maps_a_real_file_and_serves_typed_views() {
        let dir = TestDir::new("mmap-views");
        let path = dir.join("region.bin");
        let mut bytes = Vec::new();
        for v in [1.0f32, -2.5, 3.25] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [7u32, 9] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();

        let region = MmapRegion::map_file(&path).unwrap();
        assert_eq!(region.len(), 20);
        assert!(!region.is_empty());
        assert_eq!(region.as_bytes(), &bytes[..]);
        assert_eq!(region.f32s(0, 3), &[1.0, -2.5, 3.25]);
        assert_eq!(region.u32s(12, 2), &[7, 9]);
        // Unmapped before `dir` is removed.
        drop(region);
    }

    #[test]
    fn empty_files_and_heap_regions_work() {
        let dir = TestDir::new("mmap-empty");
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let region = MmapRegion::map_file(&path).unwrap();
        assert!(region.is_empty());
        assert_eq!(region.len_bytes(), 0);

        let heap = MmapRegion::from_bytes(vec![0, 0, 128, 63]); // 1.0f32 LE
        assert_eq!(heap.f32s(0, 1), &[1.0]);
        assert!(format!("{heap:?}").contains("4 bytes"));
    }

    #[test]
    fn load_mode_env_parsing() {
        // Uses the parsing logic without mutating the process environment (other
        // tests run concurrently): only the documented truthy values map to Mmap.
        assert_eq!(LoadMode::default(), LoadMode::Copy);
        // from_env reflects whatever the harness set; both outcomes are legal here.
        let _ = LoadMode::from_env();
    }
}
