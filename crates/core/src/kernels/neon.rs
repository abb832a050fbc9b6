//! NEON kernels for `aarch64`.
//!
//! Mirrors the AVX2 backend with 4-lane registers: two accumulators over a stride-8
//! main loop, an optional extra 4-lane chunk folded into the first accumulator, the
//! `vaddvq_f32` horizontal reduction, and the shared sequential scalar tails. As on
//! x86, [`dot_block`] keeps the exact per-row scheme of [`dot`], so blocked and
//! single-row results are bit-identical within this backend.
//!
//! NEON is a baseline feature of every `aarch64` target Rust supports, so no runtime
//! detection is needed — the dispatcher selects this backend unconditionally on
//! `aarch64` (unless the scalar path is forced).
//!
//! # Safety
//!
//! The intrinsics are `unsafe` only because raw pointers are dereferenced; all pointers
//! are derived from in-bounds slice indices.

#![allow(unsafe_code)]

use std::arch::aarch64::{
    float32x4_t, vaddq_f32, vaddvq_f32, vaddvq_u32, vandq_u32, vcgtq_f32, vdupq_n_f32, vfmaq_f32,
    vld1q_f32, vld1q_u32, vsubq_f32,
};

use super::scalar::{tail_dot, tail_euclidean_sq, BLOCK_ROWS};
use crate::Scalar;

/// Lanes per NEON register.
const LANES: usize = 4;
/// Main-loop stride: two 4-lane accumulators.
const STRIDE: usize = 2 * LANES;

/// Splits a length into the stride-8 main part and whether one extra 4-lane chunk fits.
#[inline(always)]
fn split_len(len: usize) -> (usize, bool) {
    let main = len - len % STRIDE;
    (main, len - main >= LANES)
}

/// Fixed-order reduction shared by the single and blocked kernels.
#[inline(always)]
unsafe fn reduce(acc0: float32x4_t, acc1: float32x4_t) -> Scalar {
    vaddvq_f32(vaddq_f32(acc0, acc1))
}

/// Inner product `⟨a, b⟩`.
///
/// # Safety
///
/// Only callable on `aarch64` (NEON is baseline there); slices must be equal-length.
pub unsafe fn dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let (main, extra4) = split_len(a.len());
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut j = 0;
    while j < main {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(j)), vld1q_f32(pb.add(j)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(j + LANES)), vld1q_f32(pb.add(j + LANES)));
        j += STRIDE;
    }
    if extra4 {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(main)), vld1q_f32(pb.add(main)));
    }
    let tail_from = main + if extra4 { LANES } else { 0 };
    reduce(acc0, acc1) + tail_dot(a, b, tail_from)
}

/// Squared Euclidean norm `‖a‖²`.
///
/// # Safety
///
/// Only callable on `aarch64`.
pub unsafe fn norm_sq(a: &[Scalar]) -> Scalar {
    dot(a, a)
}

/// Squared Euclidean distance `‖a − b‖²`.
///
/// # Safety
///
/// Only callable on `aarch64`; slices must be equal-length.
pub unsafe fn euclidean_sq(a: &[Scalar], b: &[Scalar]) -> Scalar {
    debug_assert_eq!(a.len(), b.len(), "euclidean_sq: length mismatch");
    let (main, extra4) = split_len(a.len());
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut j = 0;
    while j < main {
        let d0 = vsubq_f32(vld1q_f32(pa.add(j)), vld1q_f32(pb.add(j)));
        let d1 = vsubq_f32(vld1q_f32(pa.add(j + LANES)), vld1q_f32(pb.add(j + LANES)));
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        j += STRIDE;
    }
    if extra4 {
        let d = vsubq_f32(vld1q_f32(pa.add(main)), vld1q_f32(pb.add(main)));
        acc0 = vfmaq_f32(acc0, d, d);
    }
    let tail_from = main + if extra4 { LANES } else { 0 };
    reduce(acc0, acc1) + tail_euclidean_sq(a, b, tail_from)
}

/// Blocked inner products; per-row results are bit-identical to [`dot`].
///
/// # Safety
///
/// Only callable on `aarch64`; `rows.len() == dim * out.len()` and `query.len() == dim`.
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

/// Four rows at once with shared query loads (see the AVX2 sibling for the rationale).
///
/// # Safety
///
/// Only callable on `aarch64`; `r + 4 <= out.len()`.
#[inline]
unsafe fn dot_block4(query: &[Scalar], rows: &[Scalar], dim: usize, r: usize, out: &mut [Scalar]) {
    let (main, extra4) = split_len(dim);
    let q = query.as_ptr();
    let p0 = rows.as_ptr().add(r * dim);
    let p1 = rows.as_ptr().add((r + 1) * dim);
    let p2 = rows.as_ptr().add((r + 2) * dim);
    let p3 = rows.as_ptr().add((r + 3) * dim);
    let mut a00 = vdupq_n_f32(0.0);
    let mut a01 = vdupq_n_f32(0.0);
    let mut a10 = vdupq_n_f32(0.0);
    let mut a11 = vdupq_n_f32(0.0);
    let mut a20 = vdupq_n_f32(0.0);
    let mut a21 = vdupq_n_f32(0.0);
    let mut a30 = vdupq_n_f32(0.0);
    let mut a31 = vdupq_n_f32(0.0);
    let mut j = 0;
    while j < main {
        let q0 = vld1q_f32(q.add(j));
        let q1 = vld1q_f32(q.add(j + LANES));
        a00 = vfmaq_f32(a00, vld1q_f32(p0.add(j)), q0);
        a01 = vfmaq_f32(a01, vld1q_f32(p0.add(j + LANES)), q1);
        a10 = vfmaq_f32(a10, vld1q_f32(p1.add(j)), q0);
        a11 = vfmaq_f32(a11, vld1q_f32(p1.add(j + LANES)), q1);
        a20 = vfmaq_f32(a20, vld1q_f32(p2.add(j)), q0);
        a21 = vfmaq_f32(a21, vld1q_f32(p2.add(j + LANES)), q1);
        a30 = vfmaq_f32(a30, vld1q_f32(p3.add(j)), q0);
        a31 = vfmaq_f32(a31, vld1q_f32(p3.add(j + LANES)), q1);
        j += STRIDE;
    }
    if extra4 {
        let q0 = vld1q_f32(q.add(main));
        a00 = vfmaq_f32(a00, vld1q_f32(p0.add(main)), q0);
        a10 = vfmaq_f32(a10, vld1q_f32(p1.add(main)), q0);
        a20 = vfmaq_f32(a20, vld1q_f32(p2.add(main)), q0);
        a30 = vfmaq_f32(a30, vld1q_f32(p3.add(main)), q0);
    }
    let tail_from = main + if extra4 { LANES } else { 0 };
    let base = r * dim;
    out[r] = reduce(a00, a01) + tail_dot(query, &rows[base..base + dim], tail_from);
    out[r + 1] = reduce(a10, a11) + tail_dot(query, &rows[base + dim..base + 2 * dim], tail_from);
    out[r + 2] =
        reduce(a20, a21) + tail_dot(query, &rows[base + 2 * dim..base + 3 * dim], tail_from);
    out[r + 3] =
        reduce(a30, a31) + tail_dot(query, &rows[base + 3 * dim..base + 4 * dim], tail_from);
}

/// Bit `i` of the result is set iff `values[i] > threshold` (false for a NaN on either
/// side): four compares per step, each lane's all-ones result reduced to its bit weight.
///
/// # Safety
///
/// Only callable on `aarch64`; `values.len() <= 64`.
pub unsafe fn mask_gt(values: &[Scalar], threshold: Scalar) -> u64 {
    debug_assert!(values.len() <= u64::BITS as usize, "mask_gt: more than 64 values");
    const WEIGHTS: [u32; LANES] = [1, 2, 4, 8];
    let weights = vld1q_u32(WEIGHTS.as_ptr());
    let limit = vdupq_n_f32(threshold);
    let main = values.len() - values.len() % LANES;
    let mut mask = 0u64;
    let mut j = 0;
    while j < main {
        let above = vcgtq_f32(vld1q_f32(values.as_ptr().add(j)), limit);
        mask |= u64::from(vaddvq_u32(vandq_u32(above, weights))) << j;
        j += LANES;
    }
    for (i, &value) in values.iter().enumerate().skip(main) {
        mask |= u64::from(value > threshold) << i;
    }
    mask
}
