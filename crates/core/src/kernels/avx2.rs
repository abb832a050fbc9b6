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
//! # Safety
//!
//! Every function is `unsafe` because it is compiled with
//! `#[target_feature(enable = "avx2,fma")]`: the caller must have verified (via
//! `is_x86_feature_detected!`) that the CPU supports AVX2 and FMA. The dispatcher in
//! [`super`] is the only caller and checks exactly that.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128, __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_cmp_ps, _mm256_extractf128_ps,
    _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps, _mm256_setzero_ps,
    _mm256_sub_ps, _mm_add_ps, _mm_cvtss_f32, _mm_hadd_ps, _mm_prefetch, _mm_storeu_ps, _CMP_GT_OQ,
    _MM_HINT_T0,
};

use super::pop_row;
use super::scalar::{tail_dot, tail_euclidean_sq, BLOCK_ROWS};
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
