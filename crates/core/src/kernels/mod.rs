//! Runtime-dispatched SIMD kernels: the innermost loops of every index.
//!
//! Every query in this workspace bottoms out in dense inner products — two `O(d)` dots
//! per expanded Ball-Tree node, one per BC-Tree node, and one `|⟨x, q⟩|` per verified
//! candidate. This module provides those kernels in three interchangeable backends:
//!
//! * **Scalar** ([`scalar`]) — portable 4-way unrolled loops, always available, and the
//!   reference the SIMD backends are property-tested against;
//! * **AVX2 + FMA** — selected at runtime on `x86_64` via `is_x86_feature_detected!`;
//! * **NEON** — selected unconditionally on `aarch64` (NEON is baseline there).
//!
//! On top of the single-vector kernels ([`dot`], [`abs_dot`], [`norm_sq`],
//! [`euclidean_sq`]) sit the **blocked** kernels ([`dot_block`], [`abs_dot_block`]):
//! one query against a contiguous strip of row-major points, processed four rows at a
//! time with shared query loads and independent accumulators. Leaf verification through
//! the blocked kernels is a small matvec instead of `leaf_size` independent calls.
//! The tree traversals go one step further and treat a leaf strip as a **tile**
//! ([`abs_dot_tile`]): the rows a bitmask selects against the few queries of a group
//! that selected them, one row load feeding four queries' accumulators; [`mask_gt`]
//! turns a strip of bounds or distances into such a bitmask.
//!
//! # The checksum
//!
//! [`crc32`] — the IEEE CRC-32 over every snapshot section, WAL frame and wire frame —
//! is dispatched like the rest, because a cold start is one pass of it over the whole
//! snapshot. [`crc32_update`] is the same kernel on a raw register, for checksums taken
//! a piece at a time (a snapshot save checksums a section over the runs it writes it
//! from):
//!
//! | arm | taken when | speed (one core, `kernel_bench`) |
//! |---|---|---|
//! | PCLMULQDQ folding (`avx2::crc32_update`) | backend is AVX2 + FMA, the CPU also reports `pclmulqdq` and `sse4.1`, and the input has ≥ 64 bytes | 17–24 GB/s from cache (600 B and up), ≈ 5 GB/s over the freshly mapped pages of a cold start |
//! | slice-by-16 tables ([`scalar::crc32`]) | everything else: shorter inputs, the scalar backend (forced or detected), `aarch64` | ≈ 2 GB/s |
//!
//! It is not a [`KernelBackend`] of its own, and unlike the floating-point kernels its
//! arms agree in every bit: a checksum written under one verifies under the other.
//!
//! # Consistency guarantees
//!
//! Floating-point summation order matters: reassociating a reduction changes the last
//! few ulps. Two guarantees keep the exact-search invariants of the workspace intact:
//!
//! 1. **Within a backend, blocked ≡ single.** `dot_block` produces bit-identical per-row
//!    results to `dot` (the blocked kernels keep the same per-row accumulator scheme,
//!    reduction order, and tail handling — they only interleave column loads across
//!    rows), and so does `abs_dot_tile` per (query, row) pair. Search paths may
//!    therefore mix tiles, blocked strips and single-point verification freely.
//! 2. **One backend per answer.** `LinearScan` (the ground-truth oracle) and the tree
//!    indexes all call through this dispatcher, so within a process they share one
//!    summation order and the `assert_eq!`-style exact-match tests remain valid. This is
//!    why the trees must *not* hand-roll their own inner products: a tree verifying with
//!    FMA against an oracle summing in scalar order would differ in the last ulp and
//!    break bitwise comparisons.
//!
//! Across backends results differ within a small relative tolerance (FMA contraction,
//! different reduction trees); property tests bound the difference by `1e-3` relative.
//!
//! # Forcing the scalar path
//!
//! Set the environment variable `P2H_FORCE_SCALAR=1` before the first kernel call, or
//! call [`force_scalar`]`(true)` at any time, to route every kernel through the portable
//! scalar backend. This exists for A/B benchmarking (`kernel_bench`), for CI (both
//! dispatch arms stay green), and for reproducing results bit-for-bit across machines
//! with different SIMD capabilities.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};

use crate::{Scalar, LEAF_STRIP};

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;
pub mod scalar;

/// Which kernel implementation answers calls in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable unrolled scalar loops (the reference implementation).
    Scalar,
    /// AVX2 + FMA on `x86_64`, selected when the CPU reports both features.
    Avx2Fma,
    /// NEON on `aarch64` (baseline feature, no detection needed).
    Neon,
}

impl KernelBackend {
    /// Human-readable backend name for benchmark tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2Fma => "avx2+fma",
            KernelBackend::Neon => "neon",
        }
    }
}

/// Set when the scalar path is forced (env var or [`force_scalar`]).
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
/// Guards the one-time read of `P2H_FORCE_SCALAR`.
static ENV_INIT: Once = Once::new();
/// The backend the hardware supports, detected once.
static DETECTED: OnceLock<KernelBackend> = OnceLock::new();

fn env_init() {
    ENV_INIT.call_once(|| {
        let forced = std::env::var("P2H_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
        if forced {
            FORCE_SCALAR.store(true, Ordering::Relaxed);
        }
    });
}

#[allow(unreachable_code)] // the aarch64 arm returns unconditionally
fn detect() -> KernelBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return KernelBackend::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return KernelBackend::Neon;
    }
    KernelBackend::Scalar
}

/// The backend the hardware supports, ignoring any forced override.
pub fn detected_backend() -> KernelBackend {
    *DETECTED.get_or_init(detect)
}

/// The backend that will answer the next kernel call.
#[inline]
pub fn active_backend() -> KernelBackend {
    env_init();
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        KernelBackend::Scalar
    } else {
        detected_backend()
    }
}

/// Forces (or un-forces) the scalar backend at runtime.
///
/// `force_scalar(true)` routes every subsequent kernel call through the portable scalar
/// implementation; `force_scalar(false)` restores hardware dispatch. The switch is
/// process-global and takes effect immediately, which is what the forced-dispatch tests
/// and the `kernel_bench` A/B comparison rely on. Passing `false` also overrides a
/// `P2H_FORCE_SCALAR=1` environment setting.
pub fn force_scalar(on: bool) {
    env_init();
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Computes the inner product `⟨a, b⟩` of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths (in every build profile: the SIMD
/// backends read through raw pointers bounded by `a.len()`, so the length check must be
/// a hard precondition of this safe API, not a debug assertion).
#[inline]
pub fn dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher returns Avx2Fma only after runtime feature detection.
        KernelBackend::Avx2Fma => unsafe { avx2::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        KernelBackend::Neon => unsafe { neon::dot(a, b) },
        _ => scalar::dot(a, b),
    }
}

/// Computes the absolute inner product `|⟨a, b⟩|`, the P2H distance after the paper's
/// normalization.
#[inline]
pub fn abs_dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    dot(a, b).abs()
}

/// Computes the squared Euclidean norm `‖a‖²`.
#[inline]
pub fn norm_sq(a: &[Scalar]) -> Scalar {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher returns Avx2Fma only after runtime feature detection.
        KernelBackend::Avx2Fma => unsafe { avx2::norm_sq(a) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        KernelBackend::Neon => unsafe { neon::norm_sq(a) },
        _ => scalar::norm_sq(a),
    }
}

/// Computes the squared Euclidean distance `‖a − b‖²`.
///
/// # Panics
///
/// Panics if the slices have different lengths (hard precondition, as for [`dot`]).
#[inline]
pub fn euclidean_sq(a: &[Scalar], b: &[Scalar]) -> Scalar {
    assert_eq!(a.len(), b.len(), "euclidean_sq: length mismatch");
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher returns Avx2Fma only after runtime feature detection.
        KernelBackend::Avx2Fma => unsafe { avx2::euclidean_sq(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        KernelBackend::Neon => unsafe { neon::euclidean_sq(a, b) },
        _ => scalar::euclidean_sq(a, b),
    }
}

/// Computes the inner products of one query against `out.len()` contiguous row-major
/// rows: `out[r] = ⟨query, rows[r·dim .. (r+1)·dim]⟩`.
///
/// Per-row results are bit-identical to [`dot`] on the same row (see the module docs).
///
/// # Panics
///
/// Panics if `rows.len() != dim * out.len()` or `query.len() != dim`.
#[inline]
pub fn dot_block(query: &[Scalar], rows: &[Scalar], dim: usize, out: &mut [Scalar]) {
    assert_eq!(query.len(), dim, "dot_block: query length must equal dim");
    assert_eq!(rows.len(), dim * out.len(), "dot_block: rows must hold dim * out.len() scalars");
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher returns Avx2Fma only after runtime feature detection.
        KernelBackend::Avx2Fma => unsafe { avx2::dot_block(query, rows, dim, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        KernelBackend::Neon => unsafe { neon::dot_block(query, rows, dim, out) },
        _ => scalar::dot_block(query, rows, dim, out),
    }
}

/// Like [`dot_block`] but stores `|⟨query, row⟩|`: the point-to-hyperplane distances of
/// a strip of candidates. This is the kernel behind every blocked leaf scan.
#[inline]
pub fn abs_dot_block(query: &[Scalar], rows: &[Scalar], dim: usize, out: &mut [Scalar]) {
    dot_block(query, rows, dim, out);
    for d in out.iter_mut() {
        *d = d.abs();
    }
}

/// Clears the lowest set bit of a strip mask (which must not be 0) and returns its
/// position: masks are walked in ascending row order, here and by every caller.
#[inline(always)]
pub fn pop_row(mask: &mut u64) -> usize {
    let row = mask.trailing_zeros() as usize;
    *mask &= *mask - 1;
    row
}

/// The lowest `n` bits (`n` ≤ 64): the mask of a strip's first `n` rows.
#[inline]
pub fn first_rows(n: usize) -> u64 {
    debug_assert!(n <= LEAF_STRIP);
    if n == LEAF_STRIP {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Distances of the selected rows of one leaf strip to each of a few queries:
/// `out[i][r] = |⟨queries[i], rows[r·dim .. (r+1)·dim]⟩|` for every set bit `r` of
/// `mask`; the other entries of `out` are left as they were.
///
/// Every stored distance is bit-identical to [`abs_dot`] on the same pair (see the
/// module docs), however many queries share the call and whichever rows are selected.
/// `rows` may go on past the strip (the rest of a leaf): those rows are not read, but
/// a backend may prefetch into them while it multiplies the last rows of the strip.
///
/// # Panics
///
/// Panics if `out.len() != queries.len()`, a query does not have `dim` scalars, or
/// `mask` selects a row that `rows` does not hold in full (hard preconditions, as for
/// [`dot`]).
#[inline]
pub fn abs_dot_tile(
    queries: &[&[Scalar]],
    rows: &[Scalar],
    dim: usize,
    mask: u64,
    out: &mut [[Scalar; LEAF_STRIP]],
) {
    assert_eq!(out.len(), queries.len(), "abs_dot_tile: one output strip per query");
    assert!(queries.iter().all(|q| q.len() == dim), "abs_dot_tile: query length must equal dim");
    let addressed = (u64::BITS - mask.leading_zeros()) as usize;
    assert!(
        addressed.checked_mul(dim).is_some_and(|scalars| scalars <= rows.len()),
        "abs_dot_tile: mask selects a row beyond the end of rows"
    );
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher returns Avx2Fma only after runtime feature detection,
        // and the asserts above are the kernel's length and mask requirements.
        KernelBackend::Avx2Fma => unsafe { avx2::abs_dot_tile(queries, rows, dim, mask, out) },
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => scalar::abs_dot_tile_by(
            // SAFETY: NEON is a baseline feature of every aarch64 target, and the tile
            // loop hands it a query and a row of `dim` scalars each.
            |a, b| unsafe { neon::dot(a, b) },
            queries,
            rows,
            dim,
            mask,
            out,
        ),
        _ => scalar::abs_dot_tile_by(scalar::dot, queries, rows, dim, mask, out),
    }
}

/// The positions of a strip whose value exceeds `threshold`: bit `i` is set iff
/// `values[i] > threshold`, which is false when either side is a NaN — the same strict
/// comparison every prune in the workspace uses, a strip at a time.
///
/// # Panics
///
/// Panics if `values` holds more than 64 scalars.
#[inline]
pub fn mask_gt(values: &[Scalar], threshold: Scalar) -> u64 {
    assert!(values.len() <= u64::BITS as usize, "mask_gt: more than 64 values");
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher returns Avx2Fma only after runtime feature detection.
        KernelBackend::Avx2Fma => unsafe { avx2::mask_gt(values, threshold) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline feature of every aarch64 target.
        KernelBackend::Neon => unsafe { neon::mask_gt(values, threshold) },
        _ => scalar::mask_gt(values, threshold),
    }
}

/// CRC-32 (IEEE 802.3 reflected polynomial, the `zlib`/`png` checksum) of `bytes`: the
/// checksum of every snapshot section, WAL frame and wire frame. Every arm returns the
/// same value for the same bytes (see the module docs for which one runs).
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Advances a raw CRC-32 register (no initial or final inversion) over `bytes`, so a
/// checksum can be taken over a stream a piece at a time:
/// `!crc32_update(crc32_update(!0, a), b)` is `crc32` of `a` followed by `b`, wherever
/// the split falls. Dispatched like [`crc32`], piece by piece.
#[inline]
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= avx2::CRC_FOLD_MIN
        && active_backend() == KernelBackend::Avx2Fma
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: both features were just detected, and the length is the arm's minimum.
        return unsafe { avx2::crc32_update(state, bytes) };
    }
    scalar::crc32_update(state, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_single_bit_flips() {
        // One input per arm: below and above the folding arm's 64-byte minimum.
        for len in [22, 200] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let reference = crc32(&data);
            for i in 0..data.len() {
                for bit in 0..8 {
                    let mut flipped = data.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(crc32(&flipped), reference, "len {len}: flip at byte {i} bit {bit}");
                }
            }
        }
    }

    fn vecs(dim: usize, rows: usize) -> (Vec<Scalar>, Vec<Scalar>) {
        let query: Vec<Scalar> =
            (0..dim).map(|j| ((j * 37 + 5) % 23) as Scalar * 0.17 - 1.5).collect();
        let data: Vec<Scalar> =
            (0..dim * rows).map(|j| ((j * 13 + 2) % 29) as Scalar * 0.11 - 1.3).collect();
        (query, data)
    }

    #[test]
    fn dispatched_dot_block_matches_single_dot_bitwise() {
        // Exercise every lane-count tail: below one SIMD register, between registers,
        // multiples of the stride, and large odd sizes.
        for dim in [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 129] {
            for rows in 1..=9 {
                let (query, data) = vecs(dim, rows);
                let mut blocked = vec![0.0; rows];
                dot_block(&query, &data, dim, &mut blocked);
                for r in 0..rows {
                    let single = dot(&query, &data[r * dim..(r + 1) * dim]);
                    assert_eq!(
                        blocked[r].to_bits(),
                        single.to_bits(),
                        "dim {dim}, row {r}/{rows}: blocked {} != single {}",
                        blocked[r],
                        single
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_tile_matches_single_abs_dot_bitwise() {
        // Every lane tail × every group width (so both the four-queries-per-row and the
        // four-rows-per-query halves, and their row remainders) × the mask shapes a
        // traversal produces, on a full strip and on a short last strip.
        let masks = [u64::MAX, 0x5a5a_1234_8001_f00f, 1 << 37, (1 << 23) - 1, 0b111, 0];
        for dim in [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 129] {
            for rows in [LEAF_STRIP, 11] {
                let (query, data) = vecs(dim, rows);
                let members: Vec<Vec<Scalar>> = (0..8)
                    .map(|m| query.iter().map(|c| c + m as Scalar * 0.21).collect())
                    .collect();
                for width in 1..=members.len() {
                    let queries: Vec<&[Scalar]> =
                        members[..width].iter().map(Vec::as_slice).collect();
                    for mask in masks.map(|mask| mask & (u64::MAX >> (LEAF_STRIP - rows))) {
                        let mut tile = vec![[-1.0; LEAF_STRIP]; width];
                        abs_dot_tile(&queries, &data, dim, mask, &mut tile);
                        for (m, strip) in tile.iter().enumerate() {
                            for (r, &got) in strip.iter().enumerate() {
                                let want = match mask >> r & 1 {
                                    1 => abs_dot(queries[m], &data[r * dim..(r + 1) * dim]),
                                    _ => -1.0,
                                };
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "dim {dim}, rows {rows}, width {width}, mask {mask:#x}: \
                                     member {m}, row {r}: {got} != {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask selects a row beyond")]
    fn tile_rejects_a_mask_beyond_the_rows() {
        let (query, data) = vecs(5, 3);
        abs_dot_tile(&[&query], &data, 5, 0b1000, &mut [[0.0; LEAF_STRIP]]);
    }

    #[test]
    fn mask_gt_is_the_strict_comparison() {
        let values = [1.0, 2.0, 2.0, 3.0, Scalar::NAN, Scalar::INFINITY, -0.0, 0.0, 2.5];
        assert_eq!(mask_gt(&values, 2.0), 0b1_0010_1000);
        assert_eq!(mask_gt(&values, Scalar::INFINITY), 0);
        assert_eq!(mask_gt(&values, Scalar::NAN), 0);
        assert_eq!(mask_gt(&values, Scalar::NEG_INFINITY), 0b1_1110_1111);
        assert_eq!(mask_gt(&values, 0.0), 0b1_0010_1111);
        assert_eq!(mask_gt(&[], 0.0), 0);
        assert_eq!(mask_gt(&[1.0; 64], 0.5), u64::MAX);
    }

    #[test]
    fn scalar_dot_block_matches_scalar_dot_bitwise() {
        for dim in [1, 3, 4, 5, 8, 11, 16, 19, 64, 67] {
            for rows in 1..=6 {
                let (query, data) = vecs(dim, rows);
                let mut blocked = vec![0.0; rows];
                scalar::dot_block(&query, &data, dim, &mut blocked);
                for r in 0..rows {
                    let single = scalar::dot(&query, &data[r * dim..(r + 1) * dim]);
                    assert_eq!(blocked[r].to_bits(), single.to_bits(), "dim {dim}, row {r}");
                }
            }
        }
    }

    #[test]
    fn abs_dot_block_is_absolute_value_of_dot_block() {
        let (query, data) = vecs(33, 7);
        let mut signed = vec![0.0; 7];
        let mut unsigned = vec![0.0; 7];
        dot_block(&query, &data, 33, &mut signed);
        abs_dot_block(&query, &data, 33, &mut unsigned);
        for (s, u) in signed.iter().zip(unsigned.iter()) {
            assert_eq!(s.abs().to_bits(), u.to_bits());
        }
    }

    // NOTE: the `force_scalar` toggle is deliberately NOT unit-tested here: it is
    // process-global, and the bitwise dispatch tests in this binary run on parallel
    // test threads — a mid-test toggle would flip the backend between a test's
    // `dot_block` and its reference `dot` call and fail the `to_bits` comparison.
    // It is covered by `tests/force_scalar.rs` (own process, single test), and the
    // end-to-end ranking equivalence lives in the balltree crate's
    // `forced_scalar_dispatch` integration test.

    #[test]
    fn backends_agree_within_tolerance() {
        for dim in [5, 16, 17, 64, 100, 129] {
            let (query, data) = vecs(dim, 1);
            let fast = dot(&query, &data);
            let reference = scalar::dot(&query, &data);
            assert!(
                (fast - reference).abs() <= 1e-3 * (1.0 + reference.abs()),
                "dim {dim}: {fast} vs {reference}"
            );
            let fast_e = euclidean_sq(&query, &data);
            let ref_e = scalar::euclidean_sq(&query, &data);
            assert!((fast_e - ref_e).abs() <= 1e-3 * (1.0 + ref_e.abs()));
            let fast_n = norm_sq(&query);
            let ref_n = scalar::norm_sq(&query);
            assert!((fast_n - ref_n).abs() <= 1e-3 * (1.0 + ref_n.abs()));
        }
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(KernelBackend::Scalar.label(), "scalar");
        assert_eq!(KernelBackend::Avx2Fma.label(), "avx2+fma");
        assert_eq!(KernelBackend::Neon.label(), "neon");
        // detected_backend is deterministic within a process.
        assert_eq!(detected_backend(), detected_backend());
    }

    #[test]
    #[should_panic(expected = "rows must hold")]
    fn dot_block_rejects_mismatched_rows() {
        let mut out = vec![0.0; 2];
        dot_block(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_rejects_mismatched_lengths_in_release_too() {
        // The SIMD backends read through raw pointers bounded by a.len(), so this must
        // be a hard assert, not a debug_assert.
        let _ = dot(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "euclidean_sq: length mismatch")]
    fn euclidean_sq_rejects_mismatched_lengths() {
        let _ = euclidean_sq(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }
}
