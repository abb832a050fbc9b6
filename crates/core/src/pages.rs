//! Private anonymous pages: the second residency of an owned [`VecBuf`](crate::VecBuf).
//!
//! An owned array of at least [`PAGES_MIN_BYTES`](crate::buf::PAGES_MIN_BYTES) is its
//! own `mmap(2)` mapping rather than a `Vec`, so dropping it unmaps its pages and gives
//! them back to the operating system at once. A heap allocator need not do that: once an
//! allocator has raised its mmap threshold past such an array, a freed array stays
//! resident in the heap and a later one of the same size is placed beside it.
//!
//! **Together with the SIMD kernels, this module is the only `unsafe` code in p2h-core**
//! (the crate root denies `unsafe_code`; `kernels` and this module are exempted). It
//! holds:
//!
//! 1. [`sys`], the workspace's single declaration of the `mmap(2)`/`munmap(2)` externs
//!    (no `libc` dependency: `std` already links the C library that defines them).
//!    `p2h-store` maps snapshot files through it;
//! 2. `Pages<T>`, a zero-filled private anonymous mapping owning `len` elements, which
//!    serves them as `&[T]`/`&mut [T]` and unmaps on drop.
//!
//! Soundness of `Pages<T>` rests on three facts: the mapping is page-aligned, which is
//! aligned for any [`BufElem`]; it is zero-filled, and `BufElem` is sealed to `f32` and
//! `u32`, for which all-zero bytes are a valid value; and it is owned by exactly one
//! `Pages`, so the usual borrow rules on `&self`/`&mut self` make its slices alias-free.

use std::marker::PhantomData;
use std::ptr::NonNull;

use crate::buf::BufElem;

/// The `mmap(2)`/`munmap(2)` externs and the flag values this workspace passes to them.
#[cfg(unix)]
pub mod sys {
    use std::os::raw::{c_int, c_void};

    /// Pages may be read.
    pub const PROT_READ: c_int = 1;
    /// Pages may be written.
    pub const PROT_WRITE: c_int = 2;
    /// Writes are private to the process (copy-on-write for a file mapping).
    pub const MAP_PRIVATE: c_int = 2;
    /// `MAP_ANONYMOUS` where its value is known; `None` elsewhere, where owned buffers
    /// stay `Vec`s.
    pub const MAP_ANONYMOUS: Option<c_int> =
        if cfg!(any(target_os = "linux", target_os = "android"))
            && !cfg!(any(target_arch = "mips", target_arch = "mips64"))
        {
            Some(0x20)
        } else if cfg!(any(
            target_vendor = "apple",
            target_os = "freebsd",
            target_os = "netbsd",
            target_os = "openbsd",
            target_os = "dragonfly"
        )) {
            Some(0x1000)
        } else {
            None
        };

    /// Whether `mmap` returned a usable address (not `MAP_FAILED`, not null).
    pub fn mapped(ptr: *mut c_void) -> bool {
        ptr as isize != -1 && !ptr.is_null()
    }

    extern "C" {
        /// `mmap(2)`.
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        /// `munmap(2)`.
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// `len` zero-filled elements in a private anonymous mapping, unmapped on drop.
pub(crate) struct Pages<T: BufElem> {
    ptr: NonNull<T>,
    len: usize,
    _owns: PhantomData<T>,
}

// SAFETY: `Pages` owns its mapping exclusively (like a `Box<[T]>`), and `T: BufElem` is
// `Send + Sync`.
unsafe impl<T: BufElem> Send for Pages<T> {}
unsafe impl<T: BufElem> Sync for Pages<T> {}

impl<T: BufElem> Pages<T> {
    /// Maps `len` zeroed elements. `None` for an empty or overflowing length, on a host
    /// without anonymous mappings, or when the map fails; the caller then uses a `Vec`.
    pub(crate) fn zeroed(len: usize) -> Option<Self> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        if bytes == 0 {
            return None;
        }
        #[cfg(unix)]
        {
            let flags = sys::MAP_PRIVATE | sys::MAP_ANONYMOUS?;
            // SAFETY: an anonymous mapping at an OS-chosen address touches no existing
            // memory; the result is checked before use.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    bytes,
                    sys::PROT_READ | sys::PROT_WRITE,
                    flags,
                    -1,
                    0,
                )
            };
            if !sys::mapped(ptr) {
                return None;
            }
            Some(Self { ptr: NonNull::new(ptr.cast::<T>())?, len, _owns: PhantomData })
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    /// The elements.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr` is a live, aligned mapping of `len` initialised elements owned
        // by `self` (see the module docs), unmapped only on drop.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as in `as_slice`; `&mut self` makes this the only live borrow.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: BufElem> Drop for Pages<T> {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: `ptr`/`len` came from a successful `mmap` owned by `self` alone, and no
        // borrow of the slice outlives `self`.
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len * std::mem::size_of::<T>());
        }
    }
}
