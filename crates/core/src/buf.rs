//! Owned-or-mapped storage for the large read-only arrays of an index.
//!
//! Every index in this workspace is, at heart, a bundle of immutable dense arrays:
//! the row-major point payload, tree centers, id permutations, projection tables. A
//! [`VecBuf<T>`] holds such an array in one of three residencies:
//!
//! * **a heap `Vec<T>`** — [`VecBuf::owned`], and [`VecBuf::from_fn`] below
//!   [`PAGES_MIN_BYTES`];
//! * **its own anonymous pages** — [`VecBuf::from_fn`] at or above [`PAGES_MIN_BYTES`]:
//!   a private zero-filled `mmap(2)` mapping, unmapped on drop, so a dropped index gives
//!   its memory back to the system at once. This is how builds, compactions and the
//!   copying snapshot loader write their large arrays. Off Unix, or when the map fails,
//!   it is a `Vec` instead;
//! * **a file mapping** — [`VecBuf::mapped`]: a typed window into a shared
//!   memory-mapped region (the zero-copy snapshot loader of `p2h-store`).
//!
//! Either way it dereferences to `&[T]`, so search code is oblivious to the backing.
//! The first two are *owned*: they count in [`VecBuf::heap_bytes`] and are not
//! [`VecBuf::is_mapped`], which means file-backed.
//!
//! This module is safe code. The anonymous pages are [`crate::pages`], which also
//! declares the workspace's one set of `mmap(2)`/`munmap(2)` externs. The file-mapped
//! arm is *safe by construction* here: a backing region implements [`BufBacking`], whose
//! methods return already-typed slices. The only implementor that performs the
//! `[u8] → [T]` reinterpretation lives in `p2h-store`'s `MmapRegion` module, which is
//! where the storage layer's `unsafe` is confined. This module merely validates the
//! window (element alignment, checked byte arithmetic, region bounds) before accepting
//! it.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::pages::Pages;
use crate::{Error, Result, Scalar};

/// The size from which [`VecBuf::from_fn`] places an array in its own anonymous pages
/// rather than on the heap: 1 MiB.
pub const PAGES_MIN_BYTES: usize = 1 << 20;

/// A read-only byte region that can serve typed slices — the contract between
/// [`VecBuf`] and a memory-mapped (or otherwise shared) snapshot file.
///
/// Implementations must guarantee that, for the lifetime of the region, the bytes are
/// immutable and that `f32s`/`u32s` return exactly `len` elements starting `offset`
/// bytes into the region. `offset` is always a multiple of the element alignment and
/// `offset + len * 4 <= len_bytes()` by the time [`VecBuf::mapped`] hands it down; an
/// implementation may panic on arguments violating that contract (they indicate a bug,
/// not hostile input — hostile input is rejected with typed errors before this point).
pub trait BufBacking: Send + Sync + fmt::Debug {
    /// Total region size in bytes.
    fn len_bytes(&self) -> usize;
    /// A typed `f32` view of `len` scalars at byte `offset`.
    fn f32s(&self, offset: usize, len: usize) -> &[Scalar];
    /// A typed `u32` view of `len` integers at byte `offset`.
    fn u32s(&self, offset: usize, len: usize) -> &[u32];
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u32 {}
}

/// Element types a [`VecBuf`] can hold. Sealed: the set is fixed by what
/// [`BufBacking`] can serve (4-byte little-endian scalars and integers), for each of
/// which all-zero bytes are the value `Default` gives.
pub trait BufElem:
    Copy + Default + PartialEq + fmt::Debug + Send + Sync + sealed::Sealed + 'static
{
    /// Fetches the typed slice from a backing region. Internal dispatch for
    /// [`VecBuf`]'s `Deref`.
    #[doc(hidden)]
    fn backing_slice(backing: &dyn BufBacking, offset: usize, len: usize) -> &[Self];
}

impl BufElem for f32 {
    fn backing_slice(backing: &dyn BufBacking, offset: usize, len: usize) -> &[Self] {
        backing.f32s(offset, len)
    }
}

impl BufElem for u32 {
    fn backing_slice(backing: &dyn BufBacking, offset: usize, len: usize) -> &[Self] {
        backing.u32s(offset, len)
    }
}

/// An immutable array that is either owned (a heap `Vec` or its own anonymous pages) or
/// a window into a shared mapped region. Dereferences to `&[T]`.
///
/// Cloning an owned buffer copies its elements into the same kind of residency;
/// cloning a mapped buffer clones the `Arc` (cheap, shares the region). Equality
/// compares element slices regardless of backing, so buffers over the same values
/// compare equal whatever holds them.
pub struct VecBuf<T: BufElem> {
    inner: Inner<T>,
}

enum Inner<T: BufElem> {
    Owned(Vec<T>),
    Pages(Pages<T>),
    Mapped { backing: Arc<dyn BufBacking>, offset: usize, len: usize },
}

impl<T: BufElem> VecBuf<T> {
    /// Wraps a heap vector.
    pub fn owned(values: Vec<T>) -> Self {
        Self { inner: Inner::Owned(values) }
    }

    /// Creates an owned buffer of `len` elements, zero-filled and then written in place
    /// by `fill`.
    ///
    /// An array of at least [`PAGES_MIN_BYTES`] is its own private anonymous mapping,
    /// unmapped on drop; a smaller one (or any array off Unix, or when the map fails) is
    /// a `Vec`. Either way it is owned: not [`VecBuf::is_mapped`], and counted by
    /// [`VecBuf::heap_bytes`].
    pub fn from_fn(len: usize, fill: impl FnOnce(&mut [T])) -> Self {
        if len.saturating_mul(std::mem::size_of::<T>()) >= PAGES_MIN_BYTES {
            if let Some(mut pages) = Pages::zeroed(len) {
                fill(pages.as_mut_slice());
                return Self { inner: Inner::Pages(pages) };
            }
        }
        let mut values = vec![T::default(); len];
        fill(&mut values);
        Self::owned(values)
    }

    /// Creates a buffer viewing `len` elements starting `offset` bytes into a shared
    /// backing region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] (never panics) if `offset` is not aligned for `T`,
    /// if `len × size_of::<T>()` overflows, or if the window extends past the end of
    /// the region — the checks that make the typed reinterpretation performed by the
    /// backing sound.
    pub fn mapped(backing: Arc<dyn BufBacking>, offset: usize, len: usize) -> Result<Self> {
        let elem = std::mem::size_of::<T>();
        if !offset.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(Error::Corrupt(format!(
                "mapped buffer offset {offset} is not aligned to {} bytes",
                std::mem::align_of::<T>()
            )));
        }
        let bytes = len
            .checked_mul(elem)
            .ok_or_else(|| Error::Corrupt(format!("mapped buffer length {len} overflows")))?;
        let end = offset
            .checked_add(bytes)
            .ok_or_else(|| Error::Corrupt(format!("mapped buffer offset {offset} overflows")))?;
        if end > backing.len_bytes() {
            return Err(Error::Corrupt(format!(
                "mapped buffer {offset}..{end} exceeds the {}-byte region",
                backing.len_bytes()
            )));
        }
        Ok(Self { inner: Inner::Mapped { backing, offset, len } })
    }

    /// Whether this buffer views a shared file-mapped region (as opposed to owning its
    /// elements, on the heap or in its own anonymous pages).
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// Bytes owned by this buffer: `len × size_of::<T>()` when owned (on the heap or in
    /// its own pages), 0 when mapped (mapped bytes belong to the shared region —
    /// potentially shared between many indexes and even processes — and must not be
    /// double-counted as footprint).
    pub fn heap_bytes(&self) -> usize {
        match &self.inner {
            Inner::Owned(_) | Inner::Pages(_) => self.len() * std::mem::size_of::<T>(),
            Inner::Mapped { .. } => 0,
        }
    }

    /// Copies the elements into a fresh heap vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// The elements as a slice (same as `Deref`).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(values) => values,
            Inner::Pages(pages) => pages.as_slice(),
            Inner::Mapped { backing, offset, len } => T::backing_slice(&**backing, *offset, *len),
        }
    }
}

impl<T: BufElem> Deref for VecBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: BufElem> From<Vec<T>> for VecBuf<T> {
    fn from(values: Vec<T>) -> Self {
        Self::owned(values)
    }
}

impl<T: BufElem> Clone for VecBuf<T> {
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Owned(values) => Self::owned(values.clone()),
            Inner::Pages(pages) => Self::from_fn(pages.as_slice().len(), |copy| {
                copy.copy_from_slice(pages.as_slice());
            }),
            Inner::Mapped { backing, offset, len } => Self {
                inner: Inner::Mapped { backing: Arc::clone(backing), offset: *offset, len: *len },
            },
        }
    }
}

impl<T: BufElem> PartialEq for VecBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: BufElem> fmt::Debug for VecBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.inner {
            Inner::Owned(_) => "owned",
            Inner::Pages(_) => "pages",
            Inner::Mapped { .. } => "mapped",
        };
        write!(f, "VecBuf<{kind}>(len = {})", self.len())
    }
}

impl<T: BufElem> Default for VecBuf<T> {
    fn default() -> Self {
        Self::owned(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heap-backed test region: stores little-endian bytes, serves typed slices by
    /// decoding into leaked storage is unnecessary — it keeps parallel typed copies.
    #[derive(Debug)]
    struct TestBacking {
        bytes: usize,
        f32s: Vec<Scalar>,
        u32s: Vec<u32>,
    }

    impl TestBacking {
        fn of_f32s(values: Vec<Scalar>) -> Self {
            Self { bytes: values.len() * 4, f32s: values, u32s: Vec::new() }
        }
    }

    impl BufBacking for TestBacking {
        fn len_bytes(&self) -> usize {
            self.bytes
        }
        fn f32s(&self, offset: usize, len: usize) -> &[Scalar] {
            &self.f32s[offset / 4..offset / 4 + len]
        }
        fn u32s(&self, offset: usize, len: usize) -> &[u32] {
            &self.u32s[offset / 4..offset / 4 + len]
        }
    }

    #[test]
    fn owned_buffer_derefs_and_reports_heap() {
        let buf: VecBuf<f32> = vec![1.0, 2.0, 3.0].into();
        assert_eq!(&*buf, &[1.0, 2.0, 3.0]);
        assert!(!buf.is_mapped());
        assert_eq!(buf.heap_bytes(), 12);
        assert_eq!(buf.to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(buf.clone(), buf);
        assert!(format!("{buf:?}").contains("owned"));
    }

    #[test]
    fn mapped_buffer_views_the_region_without_owning() {
        let backing = Arc::new(TestBacking::of_f32s(vec![0.5, 1.5, 2.5, 3.5]));
        let buf = VecBuf::<f32>::mapped(backing, 4, 2).unwrap();
        assert_eq!(&*buf, &[1.5, 2.5]);
        assert!(buf.is_mapped());
        assert_eq!(buf.heap_bytes(), 0);
        assert!(format!("{buf:?}").contains("mapped"));
        // Equality is by contents, not backing.
        let owned: VecBuf<f32> = vec![1.5, 2.5].into();
        assert_eq!(buf, owned);
        // Clones share the region.
        assert_eq!(buf.clone(), owned);
    }

    #[test]
    fn mapped_rejects_misalignment_and_out_of_bounds() {
        let backing: Arc<dyn BufBacking> = Arc::new(TestBacking::of_f32s(vec![0.0; 4]));
        assert!(matches!(
            VecBuf::<f32>::mapped(Arc::clone(&backing), 2, 1),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            VecBuf::<f32>::mapped(Arc::clone(&backing), 8, 3),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            VecBuf::<f32>::mapped(Arc::clone(&backing), 0, usize::MAX / 2),
            Err(Error::Corrupt(_))
        ));
        assert!(VecBuf::<f32>::mapped(backing, 8, 2).is_ok());
    }
    /// Elements in an array of exactly [`PAGES_MIN_BYTES`].
    const FLOOR_LEN: usize = PAGES_MIN_BYTES / 4;

    fn residency<T: BufElem>(buf: &VecBuf<T>) -> String {
        format!("{buf:?}")
    }

    fn ramp(values: &mut [f32]) {
        for (i, v) in values.iter_mut().enumerate() {
            *v = i as f32 * 0.5;
        }
    }

    #[test]
    fn from_fn_puts_small_arrays_on_the_heap_and_large_ones_in_pages() {
        let below = VecBuf::<f32>::from_fn(FLOOR_LEN - 1, ramp);
        assert!(residency(&below).contains("owned"), "{below:?}");
        let at = VecBuf::<f32>::from_fn(FLOOR_LEN, ramp);
        let above = VecBuf::<u32>::from_fn(3 * FLOOR_LEN, |ids| {
            for (i, id) in ids.iter_mut().enumerate() {
                *id = i as u32;
            }
        });
        if cfg!(any(target_os = "linux", target_os = "macos")) {
            assert!(residency(&at).contains("pages"), "{at:?}");
            assert!(residency(&above).contains("pages"), "{above:?}");
        }
        for buf in [&below, &at] {
            assert!(buf.iter().enumerate().all(|(i, &v)| v == i as f32 * 0.5));
        }
        assert!(above.iter().enumerate().all(|(i, &id)| id == i as u32));
    }

    #[test]
    fn pages_are_zero_filled_and_take_lengths_off_the_page_grid() {
        // 1 MiB + 12 bytes: the mapping's last page is mostly past the array's end.
        let odd = VecBuf::<f32>::from_fn(FLOOR_LEN + 3, |_| {});
        assert_eq!(odd.len(), FLOOR_LEN + 3);
        assert!(odd.iter().all(|&v| v.to_bits() == 0));
        let written = VecBuf::<f32>::from_fn(FLOOR_LEN + 3, |values| values[FLOOR_LEN + 2] = 7.0);
        assert_eq!(written[FLOOR_LEN + 2], 7.0);
        assert_eq!(written.heap_bytes(), (FLOOR_LEN + 3) * 4);

        let empty = VecBuf::<u32>::from_fn(0, |ids| assert!(ids.is_empty()));
        assert!(empty.is_empty());
        assert_eq!(empty.heap_bytes(), 0);
        assert_eq!(empty, VecBuf::default());
    }

    #[test]
    fn pages_equal_the_vec_of_the_same_values_and_count_as_owned() {
        let len = 2 * FLOOR_LEN + 1;
        let pages = VecBuf::<f32>::from_fn(len, ramp);
        let mut values = vec![0.0; len];
        ramp(&mut values);
        let heap = VecBuf::owned(values.clone());
        assert_eq!(pages, heap);
        assert_eq!(pages.to_vec(), values);
        assert!(!pages.is_mapped());
        assert_eq!(pages.heap_bytes(), len * 4);
        assert_eq!(pages.heap_bytes(), heap.heap_bytes());
    }

    #[test]
    fn cloning_pages_copies_them() {
        let original = VecBuf::<f32>::from_fn(FLOOR_LEN + 5, ramp);
        let copy = original.clone();
        assert_eq!(copy, original);
        assert_ne!(copy.as_ptr(), original.as_ptr());
        assert_eq!(residency(&copy), residency(&original));
        drop(original);
        assert!(copy.iter().enumerate().all(|(i, &v)| v == i as f32 * 0.5));
    }
}
