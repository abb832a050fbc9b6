//! AVX2 + FMA kernels for `x86_64`.
//!
//! # Summation order
//!
//! Every kernel here uses one canonical per-vector scheme: two 8-lane accumulators over
//! a stride-16 main loop, an optional single extra 8-lane chunk folded into the first
//! accumulator, a fixed-order horizontal reduction ([`hsum8`], or [`hsum8x4`] for four
//! sums at once — same pairing), and the shared sequential scalar tail from the
//! [`super::scalar`] module. [`dot4`] keeps exactly this scheme for each of four vectors
//! against a shared one (it only interleaves the column loop), and both [`dot_block`]
//! (four rows, one query) and [`abs_dot_tile`] (one row, four queries; or four selected
//! rows, one query) are built on it, so their results are **bit-identical** to [`dot`]
//! on the same pair — the property the exact search paths rely on.
//!
//! FMA contraction means these results differ from the scalar backend in the last few
//! ulps; that is fine because a process always answers queries through one backend (see
//! the module docs of [`super`]).
//!
//! # The checksum
//!
//! [`crc32`] is the one integer kernel here: CRC-32 by carry-less multiplication
//! (`pclmulqdq`), four 128-bit lanes folded 64 bytes a step. A checksum has one right
//! answer, so this arm is bit-identical to [`super::scalar::crc32`], not merely close.
//!
//! # Safety
//!
//! Every function is `unsafe` because it is compiled with
//! `#[target_feature(enable = "avx2,fma")]` (`"pclmulqdq,sse4.1"` for the checksum): the
//! caller must have verified (via `is_x86_feature_detected!`) that the CPU supports
//! those features. The dispatcher in [`super`] is the only caller and checks exactly
//! that.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128, __m128i, __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_cmp_ps,
    _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_sub_ps, _mm_add_ps, _mm_and_si128, _mm_clmulepi64_si128,
    _mm_cvtsi32_si128, _mm_cvtss_f32, _mm_extract_epi32, _mm_hadd_ps, _mm_loadu_si128,
    _mm_prefetch, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_storeu_ps, _mm_xor_si128,
    _CMP_GT_OQ, _MM_HINT_T0,
};

use super::pop_row;
use super::scalar::{crc32_update, tail_dot, tail_euclidean_sq, BLOCK_ROWS};
use crate::{Scalar, LEAF_STRIP};

/// Lanes per AVX2 register.
const LANES: usize = 8;
/// Main-loop stride: two 8-lane accumulators.
const STRIDE: usize = 2 * LANES;
/// Bytes per cache line.
const CACHE_LINE: usize = 64;
/// How many rows ahead of the one it is multiplying [`abs_dot_tile`] asks the cache for
/// when it walks a strip one row at a time. The four-row kernels have four rows' misses
/// in flight at once; one row against four queries has a single stream and a hardware
/// prefetcher that stops at every page, so without this its speed depends on whether
/// the index still sits in the last-level cache: 8 →
/// 20 ns/(row·query) from L3 to DRAM at 129-d × 4, 8 → 10 with it (16 rows ≈ two pages
/// at 129-d; 4 gave 12, 8 to 32 the same within noise). See EXPERIMENTS.md, PR 15.
const PREFETCH_ROWS: usize = 16;
const _: () = assert!(PREFETCH_ROWS < LEAF_STRIP);

/// Folds the upper half of an 8-lane register onto the lower: `[l0+l4, l1+l5, l2+l6, l3+l7]`.
///
/// # Safety
///
/// Requires AVX2 (callers are themselves `target_feature(avx2,fma)` functions).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fold_halves(v: __m256) -> __m128 {
    _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v))
}

/// Horizontal sum of an 8-lane register in the fixed, backend-canonical order
/// `((l0+l4) + (l1+l5)) + ((l2+l6) + (l3+l7))`, without leaving the registers.
///
/// # Safety
///
/// Requires AVX2 (callers are themselves `target_feature(avx2,fma)` functions).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum8(v: __m256) -> Scalar {
    let pairs = fold_halves(v);
    let halves = _mm_hadd_ps(pairs, pairs);
    _mm_cvtss_f32(_mm_hadd_ps(halves, halves))
}

/// `[hsum8(a), hsum8(b), hsum8(c), hsum8(d)]` — every lane in [`hsum8`]'s pairing order,
/// so bit-identical to four calls — in three `hadd`s instead of eight.
///
/// # Safety
///
/// Requires AVX2 (callers are themselves `target_feature(avx2,fma)` functions).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum8x4(a: __m256, b: __m256, c: __m256, d: __m256) -> __m128 {
    let ab = _mm_hadd_ps(fold_halves(a), fold_halves(b));
    let cd = _mm_hadd_ps(fold_halves(c), fold_halves(d));
    _mm_hadd_ps(ab, cd)
}

/// Splits a length into the stride-16 main part and whether one extra 8-lane chunk fits.
#[inline(always)]
fn split_len(len: usize) -> (usize, bool) {
    let main = len - len % STRIDE;
    (main, len - main >= LANES)
}

/// Inner product `⟨a, b⟩`.
///
/// # Safety
///
/// CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let (main, extra8) = split_len(a.len());
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut j = 0;
    while j < main {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pb.add(j)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(j + LANES)),
            _mm256_loadu_ps(pb.add(j + LANES)),
            acc1,
        );
        j += STRIDE;
    }
    if extra8 {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(main)), _mm256_loadu_ps(pb.add(main)), acc0);
    }
    let tail_from = main + if extra8 { LANES } else { 0 };
    hsum8(_mm256_add_ps(acc0, acc1)) + tail_dot(a, b, tail_from)
}

/// Squared Euclidean norm `‖a‖²`.
///
/// # Safety
///
/// CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn norm_sq(a: &[Scalar]) -> Scalar {
    dot(a, a)
}

/// Squared Euclidean distance `‖a − b‖²`.
///
/// # Safety
///
/// CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn euclidean_sq(a: &[Scalar], b: &[Scalar]) -> Scalar {
    debug_assert_eq!(a.len(), b.len(), "euclidean_sq: length mismatch");
    let (main, extra8) = split_len(a.len());
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut j = 0;
    while j < main {
        let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pb.add(j)));
        let d1 =
            _mm256_sub_ps(_mm256_loadu_ps(pa.add(j + LANES)), _mm256_loadu_ps(pb.add(j + LANES)));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        j += STRIDE;
    }
    if extra8 {
        let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(main)), _mm256_loadu_ps(pb.add(main)));
        acc0 = _mm256_fmadd_ps(d, d, acc0);
    }
    let tail_from = main + if extra8 { LANES } else { 0 };
    hsum8(_mm256_add_ps(acc0, acc1)) + tail_euclidean_sq(a, b, tail_from)
}

/// Blocked inner products: one query against contiguous row-major rows; per-row results
/// are bit-identical to [`dot`].
///
/// # Safety
///
/// CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_block(query: &[Scalar], rows: &[Scalar], dim: usize, out: &mut [Scalar]) {
    debug_assert_eq!(query.len(), dim, "dot_block: query/dim mismatch");
    debug_assert_eq!(rows.len(), dim * out.len(), "dot_block: rows/out mismatch");
    let mut r = 0;
    while r + BLOCK_ROWS <= out.len() {
        dot_block4(query, rows, dim, r, out);
        r += BLOCK_ROWS;
    }
    while r < out.len() {
        out[r] = dot(query, &rows[r * dim..(r + 1) * dim]);
        r += 1;
    }
}

/// Four rows at once through [`dot4`], so leaf verification becomes a small matvec
/// instead of four separate inner products.
///
/// # Safety
///
/// CPU must support AVX2 and FMA; `r + 4 <= out.len()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_block4(query: &[Scalar], rows: &[Scalar], dim: usize, r: usize, out: &mut [Scalar]) {
    let block = rows[r * dim..(r + BLOCK_ROWS) * dim].as_ptr();
    let products =
        dot4(query.as_ptr(), [block, block.add(dim), block.add(2 * dim), block.add(3 * dim)], dim);
    out[r..r + BLOCK_ROWS].copy_from_slice(&products);
}

/// `[⟨shared, others[i]⟩; 4]` over `len` scalars, each bit-identical to [`dot`]: every
/// chunk of `shared` is loaded once and FMA-ed into the four private accumulator pairs
/// (eight independent dependency chains). Which side is the query is the caller's
/// business — one query against four rows, or one row against four queries.
///
/// # Safety
///
/// CPU must support AVX2 and FMA; all five pointers are valid for reads of `len`
/// scalars.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot4(shared: *const Scalar, others: [*const Scalar; 4], len: usize) -> [Scalar; 4] {
    let (main, extra8) = split_len(len);
    let s = shared;
    let [p0, p1, p2, p3] = others;
    let mut a00 = _mm256_setzero_ps();
    let mut a01 = _mm256_setzero_ps();
    let mut a10 = _mm256_setzero_ps();
    let mut a11 = _mm256_setzero_ps();
    let mut a20 = _mm256_setzero_ps();
    let mut a21 = _mm256_setzero_ps();
    let mut a30 = _mm256_setzero_ps();
    let mut a31 = _mm256_setzero_ps();
    let mut j = 0;
    while j < main {
        let s0 = _mm256_loadu_ps(s.add(j));
        let s1 = _mm256_loadu_ps(s.add(j + LANES));
        a00 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(j)), s0, a00);
        a01 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(j + LANES)), s1, a01);
        a10 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(j)), s0, a10);
        a11 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(j + LANES)), s1, a11);
        a20 = _mm256_fmadd_ps(_mm256_loadu_ps(p2.add(j)), s0, a20);
        a21 = _mm256_fmadd_ps(_mm256_loadu_ps(p2.add(j + LANES)), s1, a21);
        a30 = _mm256_fmadd_ps(_mm256_loadu_ps(p3.add(j)), s0, a30);
        a31 = _mm256_fmadd_ps(_mm256_loadu_ps(p3.add(j + LANES)), s1, a31);
        j += STRIDE;
    }
    if extra8 {
        let s0 = _mm256_loadu_ps(s.add(main));
        a00 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(main)), s0, a00);
        a10 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(main)), s0, a10);
        a20 = _mm256_fmadd_ps(_mm256_loadu_ps(p2.add(main)), s0, a20);
        a30 = _mm256_fmadd_ps(_mm256_loadu_ps(p3.add(main)), s0, a30);
    }
    let tail_from = main + if extra8 { LANES } else { 0 };
    let mut sums = [0.0 as Scalar; 4];
    _mm_storeu_ps(
        sums.as_mut_ptr(),
        hsum8x4(
            _mm256_add_ps(a00, a01),
            _mm256_add_ps(a10, a11),
            _mm256_add_ps(a20, a21),
            _mm256_add_ps(a30, a31),
        ),
    );
    let shared = std::slice::from_raw_parts(shared, len);
    for i in 0..4 {
        sums[i] += tail_dot(shared, std::slice::from_raw_parts(others[i], len), tail_from);
    }
    sums
}

/// Asks the cache for every line of the `dim` scalars at `row`.
///
/// # Safety
///
/// Requires AVX2 (callers are themselves `target_feature(avx2,fma)` functions); `row`
/// points at `dim` scalars of one allocation.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn prefetch_row(row: *const Scalar, dim: usize) {
    let bytes = row.cast::<i8>();
    let mut at = 0;
    while at < dim * std::mem::size_of::<Scalar>() {
        _mm_prefetch::<_MM_HINT_T0>(bytes.add(at));
        at += CACHE_LINE;
    }
}

/// The selected rows of a strip against a few queries: `out[i][r] = |⟨queries[i], row r⟩|`
/// for every set bit `r` of `mask`, each bit-identical to [`dot`]`.abs()`.
///
/// Queries are taken four at a time, one row against the four (the row is read once for
/// all of them); what is left — fewer than four queries, or the last one to three of
/// more — takes four selected rows against one query, so scattered survivors of one
/// member still share its coefficient loads. The first pass over the rows one at a time
/// prefetches [`PREFETCH_ROWS`] ahead, as far as `rows` goes: a caller whose rows go on
/// after the strip (the rest of a leaf) hands them over too.
///
/// # Safety
///
/// CPU must support AVX2 and FMA; every query has `dim` scalars, `rows` holds the
/// `dim`-sized row of every set bit of `mask` in full, and `out` has one entry per query.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn abs_dot_tile(
    queries: &[&[Scalar]],
    rows: &[Scalar],
    dim: usize,
    mask: u64,
    out: &mut [[Scalar; LEAF_STRIP]],
) {
    debug_assert!(queries.len() == out.len() && queries.iter().all(|q| q.len() == dim));
    debug_assert!((u64::BITS - mask.leading_zeros()) as usize * dim <= rows.len());
    let held = rows.len().checked_div(dim).unwrap_or(0);
    let rows = rows.as_ptr();
    let quads = queries.len() / BLOCK_ROWS * BLOCK_ROWS;
    let mut first = 0;
    while first < quads {
        let quad = [
            queries[first].as_ptr(),
            queries[first + 1].as_ptr(),
            queries[first + 2].as_ptr(),
            queries[first + 3].as_ptr(),
        ];
        let mut bits = mask;
        while bits != 0 {
            let r = pop_row(&mut bits);
            if first == 0 {
                // Past the strip the caller still holds the rows of the next one, which
                // is guessed to be selected like this one.
                let ahead = r + PREFETCH_ROWS;
                if ahead < held && mask >> (ahead % LEAF_STRIP) & 1 != 0 {
                    prefetch_row(rows.add(ahead * dim), dim);
                }
            }
            let products = dot4(rows.add(r * dim), quad, dim);
            for i in 0..BLOCK_ROWS {
                out[first + i][r] = products[i].abs();
            }
        }
        first += BLOCK_ROWS;
    }
    for (query, out) in queries[quads..].iter().zip(&mut out[quads..]) {
        let mut bits = mask;
        for _ in 0..mask.count_ones() as usize / BLOCK_ROWS {
            let picked =
                [pop_row(&mut bits), pop_row(&mut bits), pop_row(&mut bits), pop_row(&mut bits)];
            let products = dot4(
                query.as_ptr(),
                [
                    rows.add(picked[0] * dim),
                    rows.add(picked[1] * dim),
                    rows.add(picked[2] * dim),
                    rows.add(picked[3] * dim),
                ],
                dim,
            );
            for i in 0..BLOCK_ROWS {
                out[picked[i]] = products[i].abs();
            }
        }
        while bits != 0 {
            let r = pop_row(&mut bits);
            out[r] = dot(query, std::slice::from_raw_parts(rows.add(r * dim), dim)).abs();
        }
    }
}

/// Bit `i` of the result is set iff `values[i] > threshold` (false for a NaN on either
/// side).
///
/// # Safety
///
/// CPU must support AVX2 and FMA; `values.len() <= 64`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn mask_gt(values: &[Scalar], threshold: Scalar) -> u64 {
    debug_assert!(values.len() <= u64::BITS as usize, "mask_gt: more than 64 values");
    let limit = _mm256_set1_ps(threshold);
    let main = values.len() - values.len() % LANES;
    let mut mask = 0u64;
    let mut j = 0;
    while j < main {
        let above = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_loadu_ps(values.as_ptr().add(j)), limit);
        mask |= (_mm256_movemask_ps(above) as u64) << j;
        j += LANES;
    }
    for (i, &value) in values.iter().enumerate().skip(main) {
        mask |= u64::from(value > threshold) << i;
    }
    mask
}

/// Bytes per 128-bit lane of [`crc32`].
const CRC_LANE: usize = 16;
/// The shortest input [`crc32`] takes: one load of its four lanes.
pub(crate) const CRC_FOLD_MIN: usize = 4 * CRC_LANE;

// Folding constants of the reflected IEEE polynomial `P`: `x^n mod P`, bit-reversed and
// shifted left once (a carry-less product of two reflected operands comes out one bit
// low). A lane is multiplied half by half, so each distance `D` has a pair: the low
// quadword (the earlier bytes) sits 64 bits further from its target than the high one.
// The unit tests derive every value from the polynomial.
/// `x^(512+32)`, `x^(512−32)`: a lane onto the one 64 bytes later.
const CRC_FOLD_64: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
/// `x^(128+32)`, `x^(128−32)`: a lane onto the next one.
const CRC_FOLD_16: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
/// `x^64`: the step from 96 bits down to 64.
const CRC_FOLD_4: i64 = 0x1_63cd_6124;
/// `P` itself (33 bits) and `⌊x^64 / P⌋`, both reflected: the Barrett pair.
const CRC_BARRETT: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

/// `acc · x^D + next (mod P)`, with `k` the constant pair of distance `D`.
///
/// # Safety
///
/// Requires PCLMULQDQ (callers are themselves `target_feature(pclmulqdq,sse4.1)`).
#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
unsafe fn crc_fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128::<0x00>(acc, k);
    let high = _mm_clmulepi64_si128::<0x11>(acc, k);
    _mm_xor_si128(_mm_xor_si128(low, high), next)
}

/// CRC-32 (IEEE) of `data`, bit-identical to [`super::scalar::crc32`].
///
/// Four lanes are folded 64 bytes a step (four independent multiply chains), then onto
/// each other, then over the remaining whole lanes one at a time; the 128-bit remainder
/// is reduced to the 32-bit register by two more multiplications and a Barrett
/// division, and the last `len % 16` bytes go through the table arm.
///
/// # Safety
///
/// CPU must support PCLMULQDQ and SSE4.1; `data.len() >= CRC_FOLD_MIN`.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
pub unsafe fn crc32(data: &[u8]) -> u32 {
    debug_assert!(data.len() >= CRC_FOLD_MIN, "crc32: input shorter than four lanes");
    let lanes = data.len() / CRC_LANE;
    let lane = data.as_ptr().cast::<__m128i>();
    // The register starts as all ones: XOR it into the first four message bytes.
    let mut x0 = _mm_xor_si128(_mm_loadu_si128(lane), _mm_cvtsi32_si128(-1));
    let mut x1 = _mm_loadu_si128(lane.add(1));
    let mut x2 = _mm_loadu_si128(lane.add(2));
    let mut x3 = _mm_loadu_si128(lane.add(3));
    let mut at = 4;
    let k64 = _mm_set_epi64x(CRC_FOLD_64.1, CRC_FOLD_64.0);
    while at + 4 <= lanes {
        x0 = crc_fold(x0, _mm_loadu_si128(lane.add(at)), k64);
        x1 = crc_fold(x1, _mm_loadu_si128(lane.add(at + 1)), k64);
        x2 = crc_fold(x2, _mm_loadu_si128(lane.add(at + 2)), k64);
        x3 = crc_fold(x3, _mm_loadu_si128(lane.add(at + 3)), k64);
        at += 4;
    }
    let k16 = _mm_set_epi64x(CRC_FOLD_16.1, CRC_FOLD_16.0);
    let mut x = crc_fold(crc_fold(crc_fold(x0, x1, k16), x2, k16), x3, k16);
    while at < lanes {
        x = crc_fold(x, _mm_loadu_si128(lane.add(at)), k16);
        at += 1;
    }
    // 128 → 96 bits: the low quadword times x^96 onto the high one; 96 → 64: the low
    // doubleword of that times x^64 onto the rest.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k16), _mm_srli_si128::<8>(x));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, CRC_FOLD_4)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: q = ⌊low32(x) · ⌊x^64/P⌋ / x^32⌋, register = (x + q·P) / x^32.
    let barrett = _mm_set_epi64x(CRC_BARRETT.1, CRC_BARRETT.0);
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
    let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), barrett);
    let state = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
    !crc32_update(state, &data[lanes * CRC_LANE..])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^n mod P` over GF(2) in the reflected bit order (bit 31 is `x^0`).
    fn x_pow_mod_p(n: u32) -> u64 {
        (0..n).fold(1u32 << 31, |r, _| (r >> 1) ^ (0xEDB8_8320 & (r & 1).wrapping_neg())) as u64
    }

    #[test]
    fn crc_constants_follow_from_the_polynomial() {
        let k = |n| (x_pow_mod_p(n) << 1) as i64;
        assert_eq!(CRC_FOLD_64, (k(512 + 32), k(512 - 32)));
        assert_eq!(CRC_FOLD_16, (k(128 + 32), k(128 - 32)));
        assert_eq!(CRC_FOLD_4, k(64));
        // P with its x^32 term, reflected: the 32 low coefficients, then the leading one.
        let p = (0xEDB8_8320u64 << 1) | 1;
        assert_eq!(CRC_BARRETT.0, p as i64);
        // ⌊x^64 / P⌋ by long division in the natural bit order, then reflected (33 bits).
        let natural_p = p.reverse_bits() >> 31;
        let (mut rem, mut quotient) = (1u64 << 32, 0u64);
        for _ in 0..33 {
            quotient <<= 1;
            if rem >> 32 & 1 == 1 {
                quotient |= 1;
                rem ^= natural_p;
            }
            rem <<= 1;
        }
        assert_eq!(CRC_BARRETT.1, (quotient.reverse_bits() >> 31) as i64);
    }
}
