//! The checksum of snapshot sections and WAL frames: CRC-32, IEEE 802.3 reflected
//! polynomial (the `zlib`/`png` checksum), unchanged since format v1.
//!
//! The code is [`p2h_core::kernels::crc32`], a dispatched kernel like the inner
//! products — PCLMULQDQ folding where the AVX2 backend runs and the CPU has the
//! instruction, slice-by-16 tables otherwise (`P2H_FORCE_SCALAR=1`, `aarch64`, inputs
//! under 64 bytes); the arm table and the dispatch rule are in that module's docs. It is
//! a kernel because a load is one pass of it over the whole snapshot: at the
//! byte-at-a-time loop's ≈ 0.35 GB/s that pass was 0.98–0.99 of a mapped cold start.
//! This module only re-exports it, so `p2h_store::crc32` stays the name callers use.

pub use p2h_core::kernels::crc32;
